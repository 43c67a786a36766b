//! LEF (Library Exchange Format) abstract views of the generated cells
//! — the form a place-and-route tool consumes: cell size, site, and pin
//! shapes, without the full mask geometry.

use std::fmt::Write as _;

use crate::geometry::{CellLayout, Layer, Rect};

/// Pin description attached to a LEF macro.
#[derive(Debug, Clone, PartialEq)]
pub struct LefPin {
    /// Pin name.
    pub name: String,
    /// Direction: `INPUT`, `OUTPUT` or `INOUT`.
    pub direction: &'static str,
    /// Use class: `SIGNAL`, `POWER` or `GROUND`.
    pub use_class: &'static str,
}

impl LefPin {
    /// A signal input pin.
    #[must_use]
    pub fn input(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            direction: "INPUT",
            use_class: "SIGNAL",
        }
    }

    /// A signal output pin.
    #[must_use]
    pub fn output(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            direction: "OUTPUT",
            use_class: "SIGNAL",
        }
    }

    /// A supply pin.
    #[must_use]
    pub fn power(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            direction: "INOUT",
            use_class: "POWER",
        }
    }

    /// A ground pin.
    #[must_use]
    pub fn ground(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            direction: "INOUT",
            use_class: "GROUND",
        }
    }
}

/// Writes one LEF `MACRO` for a synthesized cell.
///
/// Pins are given simple one-track port rectangles spread along the
/// cell; the rails reuse the layout's Metal1 rail geometry.
///
/// # Examples
///
/// ```
/// use layout::{lef, CellLayout, CellSpec, DesignRules, Row, TransistorSpec};
/// use units::Length;
///
/// let w = Length::from_nano_meters(400.0);
/// let mut inv = CellSpec::new("INV");
/// inv.transistors.push(TransistorSpec::new("MP", Row::P, "a", "vdd", "y", w));
/// inv.transistors.push(TransistorSpec::new("MN", Row::N, "a", "gnd", "y", w));
/// let layout = CellLayout::synthesize(&inv, &DesignRules::n40());
/// let pins = [lef::LefPin::input("A"), lef::LefPin::output("Y")];
/// let text = lef::write_macro(&layout, "CoreSite", &pins);
/// assert!(text.contains("MACRO INV"));
/// assert!(text.contains("PIN A"));
/// ```
#[must_use]
pub fn write_macro(layout: &CellLayout, site: &str, pins: &[LefPin]) -> String {
    let mut out = String::new();
    let w = layout.width().micro_meters();
    let h = layout.height().micro_meters();
    let _ = writeln!(out, "MACRO {}", layout.name());
    let _ = writeln!(out, "  CLASS CORE ;");
    let _ = writeln!(out, "  ORIGIN 0 0 ;");
    let _ = writeln!(out, "  SIZE {w:.4} BY {h:.4} ;");
    let _ = writeln!(out, "  SYMMETRY X Y ;");
    let _ = writeln!(out, "  SITE {site} ;");

    // Rails from the layout's Metal1 geometry.
    let rails: Vec<&Rect> = layout
        .rects()
        .iter()
        .filter(|r| r.layer == Layer::Metal1)
        .collect();
    for (name, rail) in ["VDD", "VSS"].iter().zip(rails.iter()) {
        let _ = writeln!(out, "  PIN {name}");
        let _ = writeln!(out, "    DIRECTION INOUT ;");
        let _ = writeln!(
            out,
            "    USE {} ;",
            if *name == "VDD" { "POWER" } else { "GROUND" }
        );
        let _ = writeln!(out, "    PORT");
        let _ = writeln!(
            out,
            "      LAYER metal1 ;\n      RECT {:.4} {:.4} {:.4} {:.4} ;",
            rail.x,
            rail.y,
            rail.x + rail.w,
            rail.y + rail.h
        );
        let _ = writeln!(out, "    END");
        let _ = writeln!(out, "  END {name}");
    }

    // Signal pins: one-track M2 landing pads spread along the cell.
    let pad = 0.07;
    for (k, pin) in pins.iter().enumerate() {
        let cx = w * (k as f64 + 1.0) / (pins.len() as f64 + 1.0);
        let cy = h * 0.5;
        let _ = writeln!(out, "  PIN {}", pin.name);
        let _ = writeln!(out, "    DIRECTION {} ;", pin.direction);
        let _ = writeln!(out, "    USE {} ;", pin.use_class);
        let _ = writeln!(out, "    PORT");
        let _ = writeln!(
            out,
            "      LAYER metal2 ;\n      RECT {:.4} {:.4} {:.4} {:.4} ;",
            cx - pad,
            cy - pad,
            cx + pad,
            cy + pad
        );
        let _ = writeln!(out, "    END");
        let _ = writeln!(out, "  END {}", pin.name);
    }
    let _ = writeln!(out, "END {}", layout.name());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::DesignRules;
    use crate::spec::{fixtures, Row, TransistorSpec};
    use units::Length;

    #[test]
    fn macro_has_size_site_and_rails() {
        let layout = CellLayout::synthesize(&fixtures::inverter(), &DesignRules::n40());
        let text = write_macro(&layout, "CoreSite", &[LefPin::input("A")]);
        assert!(text.contains("MACRO inv"));
        assert!(text.contains("SIZE 0.2400 BY 1.6800 ;"));
        assert!(text.contains("SITE CoreSite ;"));
        assert!(text.contains("PIN VDD"));
        assert!(text.contains("USE GROUND ;"));
        assert!(text.contains("END inv"));
    }

    #[test]
    fn pins_land_inside_the_cell() {
        // Six unshared devices widen the inverter to seven columns.
        let mut spec = fixtures::inverter();
        for k in 0..6 {
            spec.transistors.push(TransistorSpec::new(
                &format!("MF{k}"),
                Row::P,
                &format!("g{k}"),
                &format!("s{k}"),
                &format!("d{k}"),
                Length::from_nano_meters(400.0),
            ));
        }
        let layout = CellLayout::synthesize(&spec, &DesignRules::n40());
        let pins = [LefPin::input("A"), LefPin::input("B"), LefPin::output("Y")];
        let text = write_macro(&layout, "CoreSite", &pins);
        let w = layout.width().micro_meters();
        for line in text.lines().filter(|l| l.trim_start().starts_with("RECT")) {
            let nums: Vec<f64> = line
                .split_whitespace()
                .filter_map(|t| t.trim_end_matches(';').parse().ok())
                .collect();
            assert_eq!(nums.len(), 4, "{line}");
            assert!(nums[0] >= -1e-9 && nums[2] <= w + 1e-9, "{line}");
        }
    }

    #[test]
    fn pin_constructors() {
        assert_eq!(LefPin::input("A").direction, "INPUT");
        assert_eq!(LefPin::output("Y").direction, "OUTPUT");
        assert_eq!(LefPin::power("VDD").use_class, "POWER");
        assert_eq!(LefPin::ground("VSS").use_class, "GROUND");
    }
}
