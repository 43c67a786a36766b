//! Transistor-level implementations of the paper's latch designs.
//!
//! Two non-volatile shadow-latch cells are built as [`spice`] circuits,
//! both members of one parameterized [`generator`] family and both
//! driven by one harness, [`NvWord`]:
//!
//! * `bits = 1` — the state-of-the-art **1-bit** NV latch (paper
//!   Fig. 2b): a pre-charge sense amplifier (PCSA, after Zhao et al.),
//!   one complementary MTJ pair, transmission-gate isolation and a
//!   tristate-inverter write path. 11 read-path transistors per bit.
//! * `bits = 2` — the paper's **2-bit** shadow latch (Fig. 5): one
//!   shared sense amplifier with two MTJ pairs, one *above* the
//!   cross-coupled core (doubling as the pull-up supply path through
//!   `P3`) and one *below* (reached through transmission gates and
//!   `N3`). The two bits are read sequentially — pre-charge to VDD then
//!   sense the lower pair, pre-charge to GND then sense the upper pair
//!   — with `P4`/`N4` equalizing the idle pair's taps so its resistance
//!   states cannot skew the active comparison. 16 read-path transistors
//!   for two bits.
//!
//! Both designs share write circuitry *by construction* (independent
//! tristate-driver paths per bit), reflecting the paper's reliability
//! argument for not merging write components.
//!
//! The generator extends the family to n-bit words ([`WordParams`]) and
//! can package any member as a reusable [`spice::Subckt`] definition.
//!
//! [`metrics`] extracts the Table II quantities (read energy & delay,
//! leakage, transistor count) across process corners; [`control`]
//! generates the Fig. 6/7 control-signal sequences.
//!
//! # Examples
//!
//! Restore two bits from a preconditioned 2-bit latch:
//!
//! ```
//! use cells::{LatchConfig, NvWord, WordParams};
//!
//! # fn main() -> Result<(), cells::CellError> {
//! let latch = NvWord::new(WordParams::new(2), LatchConfig::default());
//! let outcome = latch.simulate_restore(&[true, false])?;
//! assert_eq!(outcome.bits, [true, false]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod control;
pub mod error;
pub mod generator;
pub mod margin;
pub mod metrics;
pub mod request;
pub mod setup;
pub mod subckt;

pub use config::{Corner, LatchConfig, Sizing, Timing, Tolerances};
pub use control::ControlScheme;
pub use error::CellError;
pub use generator::{NvWord, WordParams, WordStimulus};
pub use margin::ReadMargins;
pub use metrics::{CellMetrics, CornerEnvelope, LatchComparison, RestoreOutcome, StoreOutcome};
pub use request::{apply_override, parse_corner, resolve_config, CellVariant, RequestError};
pub use setup::CircuitSetup;
