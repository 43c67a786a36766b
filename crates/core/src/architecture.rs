//! Design-point descriptors joining circuit, layout and behavioral
//! characterizations, and the NV word layouts derived from the circuit
//! generator's netlist.
//!
//! A cell is described once, by `cells::generator`: [`word_spec`] reads
//! the layout input (read-path transistors with their rows, nets and
//! widths, plus the MTJ pillars) off the generated subcircuit, so the
//! area Table II reports belongs to exactly the circuit it simulates.

use core::fmt;
use std::fmt::Write as _;

use cells::generator::{self, WordParams};
use cells::{CellError, CellMetrics, Corner, LatchConfig};
use layout::lef::{self, LefPin};
use layout::{CellLayout, CellSpec, DesignRules, MtjSpec, Row, TransistorSpec};
use spice::{Device, MosfetKind};
use units::{Area, Length};

/// The layout input of an n-bit NV word's read path, read off the
/// generator's subcircuit (`NVWORD<n>`) at the default configuration:
/// each read-path MOSFET (see [`generator::is_read_path_transistor`])
/// becomes a [`TransistorSpec`] in its polarity's row, each MTJ an
/// [`MtjSpec`]. `bits = 1` is the standard 1-bit component (11
/// transistors), `bits = 2` the proposed 2-bit component (16), wider
/// words the banked generalization (`6 + 5n`).
///
/// # Panics
///
/// Panics if `bits` is zero.
#[must_use]
pub fn word_spec(bits: usize) -> CellSpec {
    let sub = generator::word_subckt(
        &WordParams::new(bits),
        &LatchConfig::default(),
        &vec![false; bits],
    )
    .expect("the default word builds");
    let body = sub.body();
    let net = |node| body.node_name(node).to_owned();
    let mut spec = CellSpec::new(sub.name());
    for device in body.devices() {
        match device {
            Device::Mosfet {
                name,
                d,
                g,
                s,
                model,
                w,
                ..
            } if generator::is_read_path_transistor(device) => {
                spec.transistors.push(TransistorSpec {
                    name: name.clone(),
                    row: match model.kind {
                        MosfetKind::Pmos => Row::P,
                        MosfetKind::Nmos => Row::N,
                    },
                    gate: net(*g),
                    source: net(*s),
                    drain: net(*d),
                    width: Length::from_meters(*w),
                });
            }
            Device::Mtj { name, a, b, .. } => spec.mtjs.push(MtjSpec {
                name: name.clone(),
                bottom: net(*a),
                top: net(*b),
            }),
            _ => {}
        }
    }
    spec
}

/// Layout of an n-bit NV word component (read path, NV-calibrated
/// margins).
///
/// # Panics
///
/// Panics if `bits` is zero.
#[must_use]
pub fn word_layout(bits: usize, rules: &DesignRules) -> CellLayout {
    CellLayout::synthesize(&word_spec(bits), &layout::cells::nv_component_rules(rules))
}

/// NV-component area of an n-bit word — the Table II quantity,
/// generalized over the family.
///
/// # Panics
///
/// Panics if `bits` is zero.
#[must_use]
pub fn word_area(bits: usize, rules: &DesignRules) -> Area {
    word_layout(bits, rules).area()
}

/// Area of two abutted standard 1-bit components — the Table II
/// baseline row: twice the 1-bit width plus a spacing margin of half a
/// poly pitch, times the cell height.
#[must_use]
pub fn standard_pair_area(rules: &DesignRules) -> Area {
    let one = word_layout(1, rules);
    let spacing = rules.poly_pitch * 0.5;
    (one.width() * 2.0 + spacing) * one.height()
}

/// A small LEF library: header, the core site, and the 1-bit and 2-bit
/// NV component macros (`NVWORD1`, `NVWORD2`) with their natural pin
/// lists.
#[must_use]
pub fn write_nv_library(rules: &DesignRules) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "VERSION 5.8 ;");
    let _ = writeln!(out, "BUSBITCHARS \"[]\" ;");
    let _ = writeln!(out, "DIVIDERCHAR \"/\" ;");
    let _ = writeln!(
        out,
        "SITE CoreSite\n  CLASS CORE ;\n  SIZE {:.4} BY {:.4} ;\nEND CoreSite",
        rules.poly_pitch.micro_meters(),
        rules.cell_height().micro_meters()
    );
    let pins_1 = [
        LefPin::input("D"),
        LefPin::output("Q"),
        LefPin::input("PD"),
        LefPin::input("CLK"),
    ];
    out.push_str(&lef::write_macro(
        &word_layout(1, rules),
        "CoreSite",
        &pins_1,
    ));
    let pins_2 = [
        LefPin::input("D0"),
        LefPin::input("D1"),
        LefPin::output("Q0"),
        LefPin::output("Q1"),
        LefPin::input("PD"),
        LefPin::input("CLK"),
    ];
    out.push_str(&lef::write_macro(
        &word_layout(2, rules),
        "CoreSite",
        &pins_2,
    ));
    let _ = writeln!(out, "END LIBRARY");
    out
}

/// Which NV shadow component backs a flip-flop (group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NvComponentKind {
    /// One 1-bit component per flip-flop (the state of the art).
    Single,
    /// One shared 2-bit component per flip-flop pair (the proposal).
    Shared2,
}

impl NvComponentKind {
    /// Bits backed by one component.
    #[must_use]
    pub fn bits(self) -> usize {
        match self {
            Self::Single => 1,
            Self::Shared2 => 2,
        }
    }
}

impl fmt::Display for NvComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Single => "1-bit NV component",
            Self::Shared2 => "2-bit shared NV component",
        })
    }
}

/// A fully characterized design point: circuit metrics (per two bits of
/// storage, Table II normalization) plus layout area, for one component
/// kind at one corner.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Component kind.
    pub kind: NvComponentKind,
    /// Corner the circuit metrics were extracted at.
    pub corner: Corner,
    /// Circuit metrics, normalized to two stored bits.
    pub metrics: CellMetrics,
    /// Layout area of the component(s) backing two bits.
    pub area_two_bits: Area,
}

impl DesignPoint {
    /// Characterizes a component kind at a corner: runs the circuit
    /// simulations and synthesizes the layout.
    ///
    /// # Errors
    ///
    /// Propagates [`CellError`] from the simulations.
    pub fn characterize(
        kind: NvComponentKind,
        base: &LatchConfig,
        corner: Corner,
    ) -> Result<Self, CellError> {
        let config = base.at_corner(corner);
        let rules = DesignRules::n40();
        let (metrics, area_two_bits) = match kind {
            NvComponentKind::Single => (
                cells::metrics::characterize_standard_pair(&config)?,
                standard_pair_area(&rules),
            ),
            NvComponentKind::Shared2 => (
                cells::metrics::characterize_proposed(&config)?,
                word_area(2, &rules),
            ),
        };
        Ok(Self {
            kind,
            corner,
            metrics,
            area_two_bits,
        })
    }

    /// Read energy per stored bit.
    #[must_use]
    pub fn read_energy_per_bit(&self) -> units::Energy {
        self.metrics.read_energy / 2.0
    }

    /// Area per stored bit.
    #[must_use]
    pub fn area_per_bit(&self) -> Area {
        self.area_two_bits / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The layout geometry the hand-written 1-bit, 2-bit and banked
    /// specs produced before the specs were derived from the generator,
    /// pinned as exact f64s: the derivation must not move a single bit.
    #[test]
    fn derived_word_geometry_matches_the_pinned_values() {
        let rules = DesignRules::n40();
        // (bits, width µm, area µm², P columns, N columns)
        let pinned: [(usize, f64, f64, usize, usize); 6] = [
            (1, 1.675, 2.814, 5, 4),
            (2, 1.995, 3.3516, 7, 7),
            (3, 2.155_000_000_000_000_2, 3.6204, 7, 8),
            (4, 2.475, 4.158, 8, 10),
            (8, 3.755_000_000_000_000_3, 6.3084, 12, 18),
            (16, 6.315, 10.609_200_000_000_001, 20, 34),
        ];
        for (bits, width, area, p_cols, n_cols) in pinned {
            let spec = word_spec(bits);
            assert_eq!(spec.name, format!("NVWORD{bits}"));
            assert_eq!(spec.transistor_count(), 6 + 5 * bits, "bits = {bits}");
            let word = cells::NvWord::new(WordParams::new(bits), LatchConfig::default());
            assert_eq!(spec.transistor_count(), word.read_path_transistors());
            let layout = word_layout(bits, &rules);
            assert!(layout.check().is_empty(), "{:?}", layout.check());
            assert_eq!(layout.width().micro_meters(), width, "bits = {bits}");
            assert_eq!(layout.area().square_micro_meters(), area, "bits = {bits}");
            assert_eq!(word_area(bits, &rules), layout.area());
            assert_eq!(layout.mtj_count(), 2 * bits, "bits = {bits}");
            assert_eq!(
                (layout.p_plan().columns, layout.n_plan().columns),
                (p_cols, n_cols),
                "bits = {bits}"
            );
        }
        assert_eq!(standard_pair_area(&rules).square_micro_meters(), 5.7624);
        let threshold = layout::cells::merge_threshold(&rules);
        assert_eq!(threshold.micro_meters(), 3.35);
        assert_eq!(threshold, word_layout(1, &rules).width() * 2.0);
    }

    #[test]
    fn lef_library_carries_both_components_and_the_site() {
        let rules = DesignRules::n40();
        let text = write_nv_library(&rules);
        assert!(text.starts_with("VERSION 5.8 ;"));
        assert!(text.contains("SITE CoreSite"));
        assert!(text.contains("MACRO NVWORD1"));
        assert!(text.contains("SIZE 1.6750 BY 1.6800 ;"));
        assert!(text.contains("MACRO NVWORD2"));
        assert!(text.contains("PIN D1"));
        assert!(text.trim_end().ends_with("END LIBRARY"));
    }

    #[test]
    fn kind_properties() {
        assert_eq!(NvComponentKind::Single.bits(), 1);
        assert_eq!(NvComponentKind::Shared2.bits(), 2);
        assert!(NvComponentKind::Shared2.to_string().contains("2-bit"));
    }

    #[test]
    fn characterization_matches_the_paper_shape() {
        let base = LatchConfig::default();
        let single = DesignPoint::characterize(NvComponentKind::Single, &base, Corner::typical())
            .expect("single");
        let shared = DesignPoint::characterize(NvComponentKind::Shared2, &base, Corner::typical())
            .expect("shared");

        // The proposal wins on every per-bit cost except delay.
        assert!(shared.read_energy_per_bit() < single.read_energy_per_bit());
        assert!(shared.area_per_bit() < single.area_per_bit());
        assert!(shared.metrics.read_delay > single.metrics.read_delay);
        assert_eq!(single.metrics.read_transistors, 22);
        assert_eq!(shared.metrics.read_transistors, 16);
    }
}
