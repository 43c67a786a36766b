//! Procedural standard-cell layout for the non-volatile latch cells.
//!
//! The paper develops Cadence Virtuoso layouts (12-track cells, metal up
//! to M2) to compare the area of the standard 1-bit and proposed 2-bit
//! NV components. This crate reproduces that flow procedurally:
//!
//! 1. a cell is described as a [`CellSpec`] — transistors with their
//!    row (PMOS/NMOS), net connectivity and widths, plus the MTJ devices
//!    that sit in the back-end-of-line above the transistors;
//! 2. [`chain`] orders each row's transistors into diffusion-sharing
//!    chains (the classic Uehara–van Cleemput style left-edge heuristic),
//!    folding narrow device pairs into shared columns;
//! 3. [`CellLayout::synthesize`] places the chains on a track grid under
//!    a [`DesignRules`] set calibrated to a 40 nm process, producing
//!    rectangles per layer, the cell outline, and therefore the area;
//! 4. [`svg`] renders the result (the repository's Fig. 8 equivalent).
//!
//! The crate knows nothing of the latch circuits themselves: a cell's
//! spec is read off the circuit generator's netlist
//! (`nvff::architecture::word_spec`), so the cell that is simulated is
//! the cell that is laid out. [`cells`] holds the paper's published
//! areas and the edge-margin calibration that anchors the generator to
//! them.
//!
//! # Examples
//!
//! ```
//! use layout::{CellLayout, CellSpec, DesignRules, Row, TransistorSpec};
//! use units::Length;
//!
//! let w = Length::from_nano_meters(400.0);
//! let mut inv = CellSpec::new("INV");
//! inv.transistors.push(TransistorSpec::new("MP", Row::P, "a", "vdd", "y", w));
//! inv.transistors.push(TransistorSpec::new("MN", Row::N, "a", "gnd", "y", w));
//! let rules = DesignRules::n40();
//! let layout = CellLayout::synthesize(&inv, &rules);
//! assert_eq!(layout.width(), rules.cell_width(1)); // one shared column
//! assert!(layout.check().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod chain;
pub mod geometry;
pub mod lef;
pub mod rules;
pub mod spec;
pub mod svg;

pub use cells::PaperAreas;
pub use geometry::{CellLayout, Layer, Rect};
pub use rules::DesignRules;
pub use spec::{CellSpec, MtjSpec, Row, TransistorSpec};
