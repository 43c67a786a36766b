//! Cell description input to the layout generator.

use units::Length;

/// Which diffusion row a transistor occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Row {
    /// PMOS row (upper, in the n-well).
    P,
    /// NMOS row (lower).
    N,
}

/// One transistor of a cell: connectivity by net name plus drawn width.
#[derive(Debug, Clone, PartialEq)]
pub struct TransistorSpec {
    /// Instance name.
    pub name: String,
    /// Row assignment.
    pub row: Row,
    /// Gate net.
    pub gate: String,
    /// Source net.
    pub source: String,
    /// Drain net.
    pub drain: String,
    /// Drawn channel width.
    pub width: Length,
}

impl TransistorSpec {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: &str, row: Row, gate: &str, source: &str, drain: &str, width: Length) -> Self {
        Self {
            name: name.to_owned(),
            row,
            gate: gate.to_owned(),
            source: source.to_owned(),
            drain: drain.to_owned(),
            width,
        }
    }
}

/// One MTJ pillar in the back-end-of-line above the cell.
#[derive(Debug, Clone, PartialEq)]
pub struct MtjSpec {
    /// Instance name.
    pub name: String,
    /// Bottom-electrode net.
    pub bottom: String,
    /// Top-electrode net.
    pub top: String,
}

impl MtjSpec {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: &str, bottom: &str, top: &str) -> Self {
        Self {
            name: name.to_owned(),
            bottom: bottom.to_owned(),
            top: top.to_owned(),
        }
    }
}

/// A complete cell description.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Cell name.
    pub name: String,
    /// The transistors.
    pub transistors: Vec<TransistorSpec>,
    /// The MTJ pillars.
    pub mtjs: Vec<MtjSpec>,
}

impl CellSpec {
    /// Creates an empty cell spec.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            transistors: Vec::new(),
            mtjs: Vec::new(),
        }
    }

    /// The transistors of one row, preserving declaration order.
    #[must_use]
    pub fn row(&self, row: Row) -> Vec<&TransistorSpec> {
        self.transistors.iter().filter(|t| t.row == row).collect()
    }

    /// Total transistor count.
    #[must_use]
    pub fn transistor_count(&self) -> usize {
        self.transistors.len()
    }
}

/// Hand-built specs for the crate's unit tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;

    /// A static CMOS inverter: one device per row.
    pub(crate) fn inverter() -> CellSpec {
        let mut spec = CellSpec::new("inv");
        spec.transistors.push(TransistorSpec::new(
            "MP",
            Row::P,
            "a",
            "vdd",
            "y",
            Length::from_nano_meters(400.0),
        ));
        spec.transistors.push(TransistorSpec::new(
            "MN",
            Row::N,
            "a",
            "gnd",
            "y",
            Length::from_nano_meters(200.0),
        ));
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_filter_by_polarity() {
        let spec = fixtures::inverter();
        assert_eq!(spec.transistor_count(), 2);
        assert_eq!(spec.row(Row::P).len(), 1);
        assert_eq!(spec.row(Row::N)[0].name, "MN");
    }
}
