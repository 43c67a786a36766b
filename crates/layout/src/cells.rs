//! The paper's published NV-component areas and the one calibration
//! that anchors the generator to them.
//!
//! Table II's transistor counts ("excluding write components") and the
//! paper's statement that write drivers overlap the master/slave
//! circuitry imply the published **NV component** areas cover the read
//! path only. The cells themselves are not described here: their layout
//! input is read off the circuit generator's netlist
//! (`nvff::architecture::word_spec`), so the simulated and the laid-out
//! cell are one description.
//!
//! The calibration: the NV-component **edge margin** (well ties, MTJ
//! BEOL enclosure keep-out, PD control landing) is chosen so the 1-bit
//! component, [`NV_1BIT_COLUMNS`] transistor columns wide, equals the
//! paper's published 1.675 µm — the same number the paper uses as half
//! of its 3.35 µm neighbour-merge threshold, which makes the
//! system-level flow self-consistent with the cell level.

use units::{Area, Length};

use crate::rules::DesignRules;

/// Areas published in the paper's Table II, for comparison against the
/// generator's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperAreas;

impl PaperAreas {
    /// Two standard 1-bit NV components, including spacing margin.
    #[must_use]
    pub fn standard_pair() -> Area {
        Area::from_square_micro_meters(5.635)
    }

    /// The proposed 2-bit NV component.
    #[must_use]
    pub fn proposed_2bit() -> Area {
        Area::from_square_micro_meters(3.696)
    }

    /// One standard 1-bit NV component (half the pair figure).
    #[must_use]
    pub fn standard_1bit() -> Area {
        Area::from_square_micro_meters(5.635 / 2.0)
    }

    /// The paper's neighbour-merge distance threshold: twice the 1-bit
    /// component width.
    #[must_use]
    pub fn merge_threshold() -> Length {
        Length::from_micro_meters(3.35)
    }

    /// The 1-bit NV component width implied by the merge threshold.
    #[must_use]
    pub fn standard_width() -> Length {
        Length::from_micro_meters(1.675)
    }
}

/// Transistor columns of the 1-bit read-path component (its P row; the
/// N row needs four) — the calibration anchor of [`nv_component_rules`].
pub const NV_1BIT_COLUMNS: usize = 5;

/// Edge margin calibrated so the 1-bit read-path component is exactly
/// [`PaperAreas::standard_width`] wide under the n40 rules
/// ([`NV_1BIT_COLUMNS`] columns): `(1.675 − 5 × 0.16) / 2`.
#[must_use]
pub fn nv_component_rules(base: &DesignRules) -> DesignRules {
    let mut rules = *base;
    let cols = NV_1BIT_COLUMNS as f64;
    let margin =
        (PaperAreas::standard_width().micro_meters() - cols * base.poly_pitch.micro_meters()) / 2.0;
    rules.edge_margin = Length::from_micro_meters(margin);
    rules
}

/// The neighbour-merge distance threshold: twice the calibrated 1-bit
/// component width, as the paper defines it.
#[must_use]
pub fn merge_threshold(rules: &DesignRules) -> Length {
    nv_component_rules(rules).cell_width(NV_1BIT_COLUMNS) * 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_threshold_matches_the_paper() {
        let t = merge_threshold(&DesignRules::n40());
        assert!((t.micro_meters() - 3.35).abs() < 1e-9, "{t}");
        assert!((PaperAreas::merge_threshold().micro_meters() - 3.35).abs() < 1e-12);
    }

    #[test]
    fn calibrated_width_is_the_papers_implied_width() {
        let width = nv_component_rules(&DesignRules::n40()).cell_width(NV_1BIT_COLUMNS);
        assert!((width - PaperAreas::standard_width()).micro_meters().abs() < 1e-9);
    }
}
