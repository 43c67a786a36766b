//! # spintronic-ff
//!
//! A full reproduction of **"Multi-Bit Non-Volatile Spintronic
//! Flip-Flop"** (Münch, Bishnoi, Tahoori — DATE 2018) as a Rust
//! workspace: from the MTJ compact model and a SPICE-class circuit
//! simulator up through transistor-level latch cells, procedural
//! standard-cell layout, synthetic benchmark synthesis, placement, and
//! the neighbour-flip-flop merge flow that produces the paper's
//! system-level results.
//!
//! This umbrella crate re-exports every layer; depend on the individual
//! crates if you only need one.
//!
//! | crate | layer |
//! |---|---|
//! | [`units`] | typed physical quantities |
//! | [`mtj`] | MTJ compact model (resistance, switching, variation) |
//! | [`spice`] | MNA circuit simulator (OP, DC sweep, transient) |
//! | [`sweep`] | deterministic parallel sweep / Monte-Carlo execution engine |
//! | [`cells`] | the NV latch family: standard 1-bit, proposed 2-bit, n-bit words |
//! | [`layout`] | procedural cell layout, areas, SVG |
//! | [`netlist`] | gate-level IR + synthetic ISCAS/ITC/or1200 benchmarks |
//! | [`place`] | floorplan, placement, DEF I/O |
//! | [`merge`] | neighbour flip-flop pairing and substitution |
//! | [`nvff`] | behavioral models, Table III evaluator, power gating |
//!
//! # Examples
//!
//! The headline comparison in a few lines — two bits restored through
//! the shared sense amplifier for less energy than two standard cells:
//!
//! ```
//! use spintronic_ff::prelude::*;
//!
//! # fn main() -> Result<(), cells::CellError> {
//! let standard = NvWord::new(WordParams::new(1), LatchConfig::default());
//! let proposed = NvWord::new(WordParams::new(2), LatchConfig::default());
//! let one_bit = standard.simulate_restore(&[true])?;
//! let two_bits = proposed.simulate_restore(&[true, false])?;
//! assert_eq!(two_bits.bits, [true, false]);
//! assert!(two_bits.supply_energy < one_bit.supply_energy * 2.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cells;
pub use layout;
pub use merge;
pub use mtj;
pub use netlist;
pub use nvff;
pub use place;
pub use spice;
pub use sweep;
pub use units;

/// The most common items in one import.
pub mod prelude {
    pub use cells::{Corner, LatchConfig, NvWord, WordParams};
    pub use mtj::{MtjParams, MtjState};
    pub use nvff::system::{EvaluationMode, SystemCosts};
    pub use nvff::{MultiBitNvFlipFlop, NvFlipFlop, PowerGatingModel};
    pub use units::{Area, Energy, Power, Time, Voltage};
}
