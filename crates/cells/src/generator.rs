//! Parameterized n-bit NV word generator.
//!
//! One description covers the whole cell family: a [`WordParams`] names a
//! point in the design space — `bits` MTJ pairs around one shared
//! pre-charge sense amplifier, with `series_mtjs` devices per branch —
//! and the generator emits it either as a flat [`Circuit`]
//! ([`word_circuit`]) or as a reusable hierarchical definition
//! ([`word_subckt`]) for [`spice::Circuit::instantiate`].
//!
//! The paper's two hand-wired designs are the family's first members and
//! are reproduced **bit-for-bit** (the frozen hand-wired netlists live in
//! `tests/hierarchy_equivalence.rs`):
//!
//! * `bits = 1, series_mtjs = 1` emits exactly the standard 1-bit latch
//!   (Fig. 2b) — same node order, same source order, same device order;
//! * `bits = 2, series_mtjs = 1` emits exactly the proposed 2-bit latch
//!   (Fig. 5);
//! * every other point emits the *banked* generalization: the standard
//!   cell's PCSA core shared by `bits` MTJ pairs, each behind its own
//!   transmission gates and sense-enable footer, read sequentially by
//!   [`crate::control::word_restore`]. Read path: `6 + 5n` transistors.
//!
//! [`NvWord`] is the one characterization harness for every point. What
//! differs between the three templates — node, source and device names,
//! the sense outputs, the restore sequence and the characterization
//! workload — is per-template data next to the emitters, so one
//! restore/store/leakage path serves every width.

use std::cell::RefCell;

use mtj::{Mtj, MtjParams, MtjState, WritePolarity};
use spice::measure::Edge;
use spice::{analysis, join_path, Circuit, SimulationSession, SourceWaveform, SpiceError, Subckt};
use units::{Energy, Time};

use crate::config::LatchConfig;
use crate::control::{self, ControlScheme, Precharge, RestoreControls, StoreControls};
use crate::error::CellError;
use crate::metrics::{resolve_bit, sense_delay, CellMetrics, RestoreOutcome, StoreOutcome};

/// A point in the NV-word design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WordParams {
    /// Number of stored bits (complementary MTJ pairs).
    pub bits: usize,
    /// MTJ devices in series per branch (1 = the paper's cells; larger
    /// values trade read current for a taller resistance ladder).
    pub series_mtjs: usize,
}

/// Which circuit template a [`WordParams`] point maps onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WordArm {
    /// The hand-wired standard 1-bit latch (bits = 1, series_mtjs = 1).
    Standard,
    /// The hand-wired proposed 2-bit latch (bits = 2, series_mtjs = 1).
    Proposed,
    /// The banked n-bit generalization (everything else).
    Banked,
}

impl WordParams {
    /// A word of `bits` bits with single MTJs per branch.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    #[must_use]
    pub fn new(bits: usize) -> Self {
        assert!(bits > 0, "an NV word stores at least one bit");
        Self {
            bits,
            series_mtjs: 1,
        }
    }

    /// Same word with `count` serial MTJs per branch.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn with_series_mtjs(mut self, count: usize) -> Self {
        assert!(count > 0, "each branch needs at least one MTJ");
        self.series_mtjs = count;
        self
    }

    /// The canonical subcircuit-definition name for this point.
    #[must_use]
    pub fn subckt_name(&self) -> String {
        if self.series_mtjs == 1 {
            format!("NVWORD{}", self.bits)
        } else {
            format!("NVWORD{}X{}", self.bits, self.series_mtjs)
        }
    }

    fn arm(&self) -> WordArm {
        match (self.bits, self.series_mtjs) {
            (1, 1) => WordArm::Standard,
            (2, 1) => WordArm::Proposed,
            _ => WordArm::Banked,
        }
    }
}

/// Adds `count` serial MTJs between `from` and `to`, all preset to the
/// same state and polarity. With `count == 1` this is exactly
/// [`Circuit::add_mtj`] under the given name; longer chains name their
/// devices `<base>.S1 … <base>.S<count>` and their internal taps
/// `<base>.m1 … <base>.m<count-1>` through [`join_path`].
///
/// # Errors
///
/// Propagates [`SpiceError`] from device construction.
///
/// # Panics
///
/// Panics if `count` is zero.
#[allow(clippy::too_many_arguments)]
pub fn add_mtj_chain(
    ckt: &mut Circuit,
    base: &str,
    from: spice::NodeId,
    to: spice::NodeId,
    count: usize,
    params: &MtjParams,
    state: MtjState,
    polarity: WritePolarity,
) -> Result<(), SpiceError> {
    assert!(count > 0, "an MTJ chain needs at least one device");
    if count == 1 {
        return ckt.add_mtj(base, from, to, Mtj::new(params.clone(), state, polarity));
    }
    let mut prev = from;
    for j in 1..=count {
        let next = if j == count {
            to
        } else {
            ckt.node(&join_path(base, &format!("m{j}")))
        };
        ckt.add_mtj(
            &join_path(base, &format!("S{j}")),
            prev,
            next,
            Mtj::new(params.clone(), state, polarity),
        )?;
        prev = next;
    }
    Ok(())
}

/// Device names of the chain emitted by [`add_mtj_chain`] — the handles
/// for [`Circuit::set_mtj_state`] / [`Circuit::mtj_state`].
#[must_use]
pub fn mtj_chain_names(base: &str, count: usize) -> Vec<String> {
    if count == 1 {
        vec![base.to_owned()]
    } else {
        (1..=count)
            .map(|j| join_path(base, &format!("S{j}")))
            .collect()
    }
}

/// Complete stimulus set for one word simulation, addressed by source
/// name. The name set depends on the [`WordParams`] point — the two
/// legacy arms keep their historical names (`VPCB`, `VSEN`, … /
/// `VPCVB`, `VREN`, …), the banked arm indexes per bit (`VSEN0`,
/// `VSENB0`, `VD0`, …).
#[derive(Debug, Clone)]
pub struct WordStimulus {
    entries: Vec<(String, SourceWaveform)>,
}

impl WordStimulus {
    /// Builds a stimulus from explicit `(source name, waveform)` pairs.
    #[must_use]
    pub fn from_pairs(pairs: impl IntoIterator<Item = (String, SourceWaveform)>) -> Self {
        Self {
            entries: pairs.into_iter().collect(),
        }
    }

    /// Everything inactive at the given supply: used for leakage
    /// operating points and reference builds.
    #[must_use]
    pub fn idle(params: &WordParams, vdd: f64) -> Self {
        let hi = SourceWaveform::Dc(vdd);
        let lo = SourceWaveform::Dc(0.0);
        let mut entries: Vec<(String, SourceWaveform)> = Vec::new();
        match params.arm() {
            WordArm::Standard => {
                for (name, wave) in [
                    ("VDD", &hi),
                    ("VPCB", &hi),
                    ("VSEN", &lo),
                    ("VSENB", &hi),
                    ("VD", &lo),
                    ("VDB", &hi),
                    ("VWEN", &lo),
                    ("VWENB", &hi),
                ] {
                    entries.push((name.to_owned(), wave.clone()));
                }
            }
            WordArm::Proposed => {
                for (name, wave) in [
                    ("VDD", &hi),
                    ("VPCVB", &hi),
                    ("VPCG", &lo),
                    ("VREN", &lo),
                    ("VRENB", &hi),
                    ("VSELB", &hi),
                    ("VP4B", &hi),
                    ("VN4", &lo),
                    ("VD0", &lo),
                    ("VD0B", &hi),
                    ("VD1", &lo),
                    ("VD1B", &hi),
                    ("VWEN", &lo),
                    ("VWENB", &hi),
                ] {
                    entries.push((name.to_owned(), wave.clone()));
                }
            }
            WordArm::Banked => {
                entries.push(("VDD".to_owned(), hi.clone()));
                entries.push(("VPCB".to_owned(), hi.clone()));
                for i in 0..params.bits {
                    entries.push((format!("VSEN{i}"), lo.clone()));
                    entries.push((format!("VSENB{i}"), hi.clone()));
                }
                for i in 0..params.bits {
                    entries.push((format!("VD{i}"), lo.clone()));
                    entries.push((format!("VDB{i}"), hi.clone()));
                }
                entries.push(("VWEN".to_owned(), lo.clone()));
                entries.push(("VWENB".to_owned(), hi));
            }
        }
        Self { entries }
    }

    /// Restore stimulus: the idle set with the restore sequence's
    /// controls driven — the pre-charge and per-bit sense enables of a
    /// banked sequence, or the 2-bit cell's pre-charge, enable and
    /// equalizer gates.
    ///
    /// # Panics
    ///
    /// Panics if the controls do not fit the point: the 2-bit cell takes
    /// [`RestoreControls::Proposed`], every other point
    /// [`RestoreControls::Banked`] with one enable pair per bit.
    #[must_use]
    pub fn restore(params: &WordParams, controls: &RestoreControls, vdd: f64) -> Self {
        let mut s = Self::idle(params, vdd);
        match (params.arm(), controls) {
            (WordArm::Proposed, RestoreControls::Proposed(c)) => {
                for (name, wave) in [
                    ("VPCVB", &c.pcv_b),
                    ("VPCG", &c.pcg),
                    ("VREN", &c.ren),
                    ("VRENB", &c.ren_b),
                    ("VSELB", &c.sel_b),
                    ("VP4B", &c.p4_b),
                    ("VN4", &c.n4),
                ] {
                    s.set(name, wave.clone());
                }
            }
            (WordArm::Standard, RestoreControls::Banked(c)) => {
                assert_eq!(c.sen.len(), 1, "one sense enable per bit");
                s.set("VPCB", c.pc_b.clone());
                s.set("VSEN", c.sen[0].clone());
                s.set("VSENB", c.sen_b[0].clone());
            }
            (WordArm::Banked, RestoreControls::Banked(c)) => {
                assert_eq!(c.sen.len(), params.bits, "one sense enable per bit");
                s.set("VPCB", c.pc_b.clone());
                for i in 0..params.bits {
                    s.set(&format!("VSEN{i}"), c.sen[i].clone());
                    s.set(&format!("VSENB{i}"), c.sen_b[i].clone());
                }
            }
            _ => {
                panic!("the 2-bit cell takes the proposed restore, every other word the banked one")
            }
        }
        s
    }

    /// Store stimulus: the idle set with the write enable pulsed and the
    /// per-bit data lines at DC levels encoding `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != params.bits`.
    #[must_use]
    pub fn store(params: &WordParams, controls: &StoreControls, vdd: f64, data: &[bool]) -> Self {
        assert_eq!(data.len(), params.bits, "one data bit per stored bit");
        let level = |b: bool| SourceWaveform::Dc(if b { vdd } else { 0.0 });
        let mut s = Self::idle(params, vdd);
        s.set("VWEN", controls.wen.clone());
        s.set("VWENB", controls.wen_b.clone());
        match params.arm() {
            WordArm::Standard => {
                s.set("VD", level(data[0]));
                s.set("VDB", level(!data[0]));
            }
            WordArm::Proposed => {
                s.set("VPCG", controls.pcg.clone());
                for (i, &bit) in data.iter().enumerate() {
                    s.set(&format!("VD{i}"), level(bit));
                    s.set(&format!("VD{i}B"), level(!bit));
                }
            }
            WordArm::Banked => {
                for (i, &bit) in data.iter().enumerate() {
                    s.set(&format!("VD{i}"), level(bit));
                    s.set(&format!("VDB{i}"), level(!bit));
                }
            }
        }
        s
    }

    /// Replaces the waveform of an existing source.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not part of this stimulus (the name set is
    /// fixed by the [`WordParams`] point).
    pub fn set(&mut self, name: &str, wave: SourceWaveform) {
        let slot = self
            .entries
            .iter_mut()
            .find(|(n, _)| n == name)
            .expect("stimulus names are fixed");
        slot.1 = wave;
    }

    /// The waveform bound to a source name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not part of this stimulus.
    #[must_use]
    pub fn wave(&self, name: &str) -> SourceWaveform {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w.clone())
            .expect("stimulus names are fixed")
    }

    /// The `(source name, waveform)` pairs, in construction order.
    #[must_use]
    pub fn entries(&self) -> &[(String, SourceWaveform)] {
        &self.entries
    }

    /// `(source name, t = 0 level)` pairs for leakage accounting.
    #[must_use]
    pub fn levels(&self) -> Vec<(String, f64)> {
        self.entries
            .iter()
            .map(|(n, w)| (n.clone(), w.value_at(0.0)))
            .collect()
    }
}

/// Node names of the word circuit in interning order. The two legacy
/// arms reproduce the hand-wired builds' exact order (node order fixes
/// MNA indices, so this is part of the bit-for-bit contract).
fn word_node_names(params: &WordParams) -> Vec<String> {
    match params.arm() {
        WordArm::Standard => [
            "vdd", "q", "qb", "sl", "sr", "w1", "w2", "wm", "pc_b", "sen", "sen_b", "d", "db",
            "wen", "wen_b",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect(),
        WordArm::Proposed => [
            "vdd",
            "mtj_read",
            "mtj_read_b",
            "tl",
            "tr",
            "mt",
            "nl",
            "nr",
            "m",
            "a3",
            "a4",
            "pcv_b",
            "pcg",
            "ren",
            "ren_b",
            "sel_b",
            "p4_b",
            "n4",
            "d0",
            "d0b",
            "d1",
            "d1b",
            "wen",
            "wen_b",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect(),
        WordArm::Banked => {
            let mut names: Vec<String> = ["vdd", "q", "qb", "sl", "sr"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect();
            for i in 0..params.bits {
                names.push(format!("w1_{i}"));
                names.push(format!("w2_{i}"));
                names.push(format!("wm_{i}"));
            }
            names.push("pc_b".to_owned());
            for i in 0..params.bits {
                names.push(format!("sen{i}"));
                names.push(format!("sen_b{i}"));
            }
            for i in 0..params.bits {
                names.push(format!("d{i}"));
                names.push(format!("db{i}"));
            }
            names.push("wen".to_owned());
            names.push("wen_b".to_owned());
            names
        }
    }
}

/// `(source name, driven node name)` pairs in source-insertion order.
fn word_source_nodes(params: &WordParams) -> Vec<(String, String)> {
    let own = |pairs: &[(&str, &str)]| {
        pairs
            .iter()
            .map(|&(s, n)| (s.to_owned(), n.to_owned()))
            .collect::<Vec<_>>()
    };
    match params.arm() {
        WordArm::Standard => own(&[
            ("VDD", "vdd"),
            ("VPCB", "pc_b"),
            ("VSEN", "sen"),
            ("VSENB", "sen_b"),
            ("VD", "d"),
            ("VDB", "db"),
            ("VWEN", "wen"),
            ("VWENB", "wen_b"),
        ]),
        WordArm::Proposed => own(&[
            ("VDD", "vdd"),
            ("VPCVB", "pcv_b"),
            ("VPCG", "pcg"),
            ("VREN", "ren"),
            ("VRENB", "ren_b"),
            ("VSELB", "sel_b"),
            ("VP4B", "p4_b"),
            ("VN4", "n4"),
            ("VD0", "d0"),
            ("VD0B", "d0b"),
            ("VD1", "d1"),
            ("VD1B", "d1b"),
            ("VWEN", "wen"),
            ("VWENB", "wen_b"),
        ]),
        WordArm::Banked => {
            let mut pairs = vec![
                ("VDD".to_owned(), "vdd".to_owned()),
                ("VPCB".to_owned(), "pc_b".to_owned()),
            ];
            for i in 0..params.bits {
                pairs.push((format!("VSEN{i}"), format!("sen{i}")));
                pairs.push((format!("VSENB{i}"), format!("sen_b{i}")));
            }
            for i in 0..params.bits {
                pairs.push((format!("VD{i}"), format!("d{i}")));
                pairs.push((format!("VDB{i}"), format!("db{i}")));
            }
            pairs.push(("VWEN".to_owned(), "wen".to_owned()));
            pairs.push(("VWENB".to_owned(), "wen_b".to_owned()));
            pairs
        }
    }
}

/// Port names of the word's subcircuit definition: every node except the
/// internal sense/write taps.
fn word_port_names(params: &WordParams) -> Vec<String> {
    let internal = |name: &str| {
        matches!(name, "sl" | "sr" | "w1" | "w2" | "wm")
            || matches!(name, "tl" | "tr" | "mt" | "nl" | "nr" | "m" | "a3" | "a4")
            || name.starts_with("w1_")
            || name.starts_with("w2_")
            || name.starts_with("wm_")
    };
    word_node_names(params)
        .into_iter()
        .filter(|n| !internal(n))
        .collect()
}

/// Device base names of each bit's complementary MTJ pair, in bit
/// order: `(primary, complement)`, the primary holding
/// `MtjState::from_bit(bit)`. The 2-bit cell's bit 0 is its lower pair;
/// on its upper pair `MTJ1` holds the complement, so that the upper read
/// resolves the sense output to the true bit. Chains of
/// `series_mtjs > 1` expand through [`mtj_chain_names`].
fn mtj_pairs(params: &WordParams) -> Vec<(String, String)> {
    let own = |p: &str, c: &str| (p.to_owned(), c.to_owned());
    match params.arm() {
        WordArm::Standard => vec![own("MTJA", "MTJB")],
        WordArm::Proposed => vec![own("MTJ3", "MTJ4"), own("MTJ2", "MTJ1")],
        WordArm::Banked => (0..params.bits)
            .map(|i| (format!("MTJA{i}"), format!("MTJB{i}")))
            .collect(),
    }
}

/// The sense-amplifier output pair `(q, q̄)` a restore samples.
fn sense_nodes(params: &WordParams) -> (&'static str, &'static str) {
    match params.arm() {
        WordArm::Proposed => ("mtj_read", "mtj_read_b"),
        WordArm::Standard | WordArm::Banked => ("q", "qb"),
    }
}

/// The cached session's label (names the circuit in solver traces).
fn session_label(params: &WordParams) -> String {
    match params.arm() {
        WordArm::Standard => "standard_latch".to_owned(),
        WordArm::Proposed => "proposed_2bit".to_owned(),
        WordArm::Banked => format!("nv_word_{}b", params.bits),
    }
}

/// The characterization workload: the stored words the read metrics
/// average over, and the `[data, initial]` store the write metrics come
/// from. The 2-bit cell keeps the paper's Table II workload — all four
/// patterns, `[1, 0]` over `[0, 1]`; every other word reads all zeros,
/// all ones and (multi-bit) alternating, and stores all ones over all
/// zeros.
fn characterization_patterns(params: &WordParams) -> (Vec<Vec<bool>>, [Vec<bool>; 2]) {
    let bits = params.bits;
    if params.arm() == WordArm::Proposed {
        let reads = [[false, false], [false, true], [true, false], [true, true]];
        return (
            reads.iter().map(|p| p.to_vec()).collect(),
            [vec![true, false], vec![false, true]],
        );
    }
    let mut reads = vec![vec![false; bits], vec![true; bits]];
    if bits > 1 {
        reads.push((0..bits).map(|i| i % 2 == 1).collect());
    }
    (reads, [vec![true; bits], vec![false; bits]])
}

fn resolve(ckt: &Circuit, name: &str) -> spice::NodeId {
    ckt.find_node(name)
        .expect("word nodes are interned before device emission")
}

/// Emits the standard 1-bit latch's devices (paper Fig. 2b) in the
/// legacy hand-wired order. Nodes must already be interned.
///
/// A pre-charge sense amplifier (after Zhao et al., the paper's
/// reference 28) with the complementary MTJ pair in the discharge path,
/// isolated from the write drivers `IA`/`IB` by transmission gates:
///
/// ```text
///        VDD ──┬────────┬───────────┬────────┬── VDD
///            PCA(pc̄)   P1(g=qb)   P2(g=q)   PCB(pc̄)
///              └──── q ──┤├ cross ├┤── qb ───┘
///                   N1(g=qb)     N2(g=q)
///                    sl │           │ sr
///                 T1(sen)│          │T2(sen)
///                    w1 │           │ w2
///                   MTJ-A │        │ MTJ-B      (complementary pair)
///                       └─── wm ───┘
///                          NEN(sen)
///                           GND
/// ```
fn emit_standard_devices(
    ckt: &mut Circuit,
    cfg: &LatchConfig,
    series_mtjs: usize,
    stored: &[bool],
) -> Result<(), SpiceError> {
    let tech = &cfg.tech;
    let s = &cfg.sizing;
    let gnd = Circuit::GROUND;
    let (vdd, q, qb, sl, sr, w1, w2, wm) = (
        resolve(ckt, "vdd"),
        resolve(ckt, "q"),
        resolve(ckt, "qb"),
        resolve(ckt, "sl"),
        resolve(ckt, "sr"),
        resolve(ckt, "w1"),
        resolve(ckt, "w2"),
        resolve(ckt, "wm"),
    );
    let (pc_b, sen, sen_b, d, db, wen, wen_b) = (
        resolve(ckt, "pc_b"),
        resolve(ckt, "sen"),
        resolve(ckt, "sen_b"),
        resolve(ckt, "d"),
        resolve(ckt, "db"),
        resolve(ckt, "wen"),
        resolve(ckt, "wen_b"),
    );

    // Pre-charge pair.
    ckt.add_pmos("PCA", q, pc_b, vdd, tech, s.precharge)?;
    ckt.add_pmos("PCB2", qb, pc_b, vdd, tech, s.precharge)?;
    // Cross-coupled core.
    ckt.add_pmos("P1", q, qb, vdd, tech, s.cross_pmos)?;
    ckt.add_pmos("P2", qb, q, vdd, tech, s.cross_pmos)?;
    ckt.add_nmos("N1", q, qb, sl, tech, s.cross_nmos)?;
    ckt.add_nmos("N2", qb, q, sr, tech, s.cross_nmos)?;
    // Isolation transmission gates.
    crate::subckt::transmission_gate(ckt, "T1", sl, w1, sen, sen_b, tech, s.transmission)?;
    crate::subckt::transmission_gate(ckt, "T2", sr, w2, sen, sen_b, tech, s.transmission)?;
    // Sense-enable footer.
    ckt.add_nmos("NEN", wm, sen, gnd, tech, s.sense_enable)?;
    // Complementary MTJ pair (chains of `series_mtjs` per branch).
    let state_a = MtjState::from_bit(stored[0]);
    add_mtj_chain(
        ckt,
        "MTJA",
        w1,
        wm,
        series_mtjs,
        &cfg.mtj,
        state_a,
        WritePolarity::PositiveSetsAntiParallel,
    )?;
    add_mtj_chain(
        ckt,
        "MTJB",
        wm,
        w2,
        series_mtjs,
        &cfg.mtj,
        state_a.toggled(),
        WritePolarity::PositiveSetsParallel,
    )?;
    // Write drivers: IA at w1 takes D̄, IB at w2 takes D, so D = 1
    // pushes current w1 → wm → w2 and stores MTJ-A = AP.
    crate::subckt::tristate_inverter(
        ckt,
        "IA",
        db,
        w1,
        wen,
        wen_b,
        vdd,
        gnd,
        tech,
        s.write_pmos,
        s.write_nmos,
    )?;
    crate::subckt::tristate_inverter(
        ckt,
        "IB",
        d,
        w2,
        wen,
        wen_b,
        vdd,
        gnd,
        tech,
        s.write_pmos,
        s.write_nmos,
    )?;
    // Output wiring load.
    ckt.add_capacitor("CQ", q, gnd, s.output_load)?;
    ckt.add_capacitor(
        "CQB",
        qb,
        gnd,
        s.output_load * (1.0 + s.output_load_mismatch),
    )?;
    Ok(())
}

/// Emits the proposed 2-bit latch's devices (paper Fig. 5) in the legacy
/// hand-wired order. Nodes must already be interned.
///
/// One sense amplifier serves two complementary MTJ pairs, the upper one
/// doubling as the pull-up supply path through `P3`, the lower one
/// reached through transmission gates and `N3`:
///
/// ```text
///                    VDD
///                  P3(sel̄)                       write drivers
///                     │ mt                        I1 → tl (D1)
///          MTJ-1 ┌────┴────┐ MTJ-2                I2 → tr (D̄1)
///            tl ─┤         ├─ tr   ← P4(p4̄) equalizes tl/tr
///           P1(g=qb)     P2(g=q)
///   pcv̄→PCV ── q ─┤ cross ├─ qb ── PCV ←pcv̄
///   pcg→PCG ──────┤       ├────── PCG ←pcg
///           N1(g=qb)     N2(g=q)
///            nl ─┐         ┌─ nr   ← N4(n4) equalizes nl/nr
///          T1(ren)│       │T2(ren)
///            a3 ─┤         ├─ a4                  I3 → a3 (D̄0)
///          MTJ-3 └────┬────┘ MTJ-4                I4 → a4 (D0)
///                     │ m
///                  N3(ren)
///                    GND
/// ```
fn emit_proposed_devices(
    ckt: &mut Circuit,
    cfg: &LatchConfig,
    series_mtjs: usize,
    stored: &[bool],
) -> Result<(), SpiceError> {
    let tech = &cfg.tech;
    let s = &cfg.sizing;
    let gnd = Circuit::GROUND;
    let (q, qb) = (resolve(ckt, "mtj_read"), resolve(ckt, "mtj_read_b"));
    let (vdd, tl, tr, mt, nl, nr, m, a3, a4) = (
        resolve(ckt, "vdd"),
        resolve(ckt, "tl"),
        resolve(ckt, "tr"),
        resolve(ckt, "mt"),
        resolve(ckt, "nl"),
        resolve(ckt, "nr"),
        resolve(ckt, "m"),
        resolve(ckt, "a3"),
        resolve(ckt, "a4"),
    );
    let (pcv_b, pcg, ren, ren_b, sel_b, p4_b, n4) = (
        resolve(ckt, "pcv_b"),
        resolve(ckt, "pcg"),
        resolve(ckt, "ren"),
        resolve(ckt, "ren_b"),
        resolve(ckt, "sel_b"),
        resolve(ckt, "p4_b"),
        resolve(ckt, "n4"),
    );
    let (d0, d0b, d1, d1b, wen, wen_b) = (
        resolve(ckt, "d0"),
        resolve(ckt, "d0b"),
        resolve(ckt, "d1"),
        resolve(ckt, "d1b"),
        resolve(ckt, "wen"),
        resolve(ckt, "wen_b"),
    );

    // Pre-charge devices (to VDD and to GND).
    ckt.add_pmos("PCVA", q, pcv_b, vdd, tech, s.precharge)?;
    ckt.add_pmos("PCVB2", qb, pcv_b, vdd, tech, s.precharge)?;
    ckt.add_nmos("PCGA", q, pcg, gnd, tech, s.precharge)?;
    ckt.add_nmos("PCGB", qb, pcg, gnd, tech, s.precharge)?;
    // Cross-coupled core with split source taps.
    ckt.add_pmos("P1", q, qb, tl, tech, s.cross_pmos)?;
    ckt.add_pmos("P2", qb, q, tr, tech, s.cross_pmos)?;
    ckt.add_nmos("N1", q, qb, nl, tech, s.cross_nmos)?;
    ckt.add_nmos("N2", qb, q, nr, tech, s.cross_nmos)?;
    // Header/footer sense enables.
    ckt.add_pmos("P3", mt, sel_b, vdd, tech, s.sense_enable)?;
    ckt.add_nmos("N3", m, ren, gnd, tech, s.sense_enable)?;
    // Tap equalizers.
    ckt.add_pmos("P4", tl, p4_b, tr, tech, s.equalizer)?;
    ckt.add_nmos("N4", nl, n4, nr, tech, s.equalizer)?;
    // Lower-pair isolation transmission gates.
    crate::subckt::transmission_gate(ckt, "T1", nl, a3, ren, ren_b, tech, s.transmission)?;
    crate::subckt::transmission_gate(ckt, "T2", nr, a4, ren, ren_b, tech, s.transmission)?;

    // Upper complementary pair (bit 1): tl —MTJ1— mt —MTJ2— tr.
    // Polarities chosen so the I1/I2 drive of D1 = 1 leaves MTJ1 = P,
    // which makes `q` the faster-rising (winning) output on the
    // upper-pair read.
    let state1 = MtjState::from_bit(stored[1]);
    add_mtj_chain(
        ckt,
        "MTJ1",
        tl,
        mt,
        series_mtjs,
        &cfg.mtj,
        state1.toggled(),
        WritePolarity::PositiveSetsAntiParallel,
    )?;
    add_mtj_chain(
        ckt,
        "MTJ2",
        mt,
        tr,
        series_mtjs,
        &cfg.mtj,
        state1,
        WritePolarity::PositiveSetsParallel,
    )?;
    // Lower complementary pair (bit 0): a3 —MTJ3— m —MTJ4— a4.
    let state0 = MtjState::from_bit(stored[0]);
    add_mtj_chain(
        ckt,
        "MTJ3",
        a3,
        m,
        series_mtjs,
        &cfg.mtj,
        state0,
        WritePolarity::PositiveSetsAntiParallel,
    )?;
    add_mtj_chain(
        ckt,
        "MTJ4",
        m,
        a4,
        series_mtjs,
        &cfg.mtj,
        state0.toggled(),
        WritePolarity::PositiveSetsParallel,
    )?;

    // Write drivers. Lower pair per the paper: I4 takes D0 (at a4),
    // I3 takes D̄0 (at a3), so D0 = 1 drives a3 → m → a4 and stores
    // MTJ3 = AP. Upper pair: I1 takes D1 (at tl), I2 takes D̄1 (at
    // tr), so D1 = 1 drives tr → mt → tl and stores MTJ1 = P /
    // MTJ2 = AP — the orientation that makes `q` win the upper read.
    for (name, input, output) in [
        ("I3", d0b, a3),
        ("I4", d0, a4),
        ("I1", d1, tl),
        ("I2", d1b, tr),
    ] {
        crate::subckt::tristate_inverter(
            ckt,
            name,
            input,
            output,
            wen,
            wen_b,
            vdd,
            gnd,
            tech,
            s.write_pmos,
            s.write_nmos,
        )?;
    }
    // Output wiring load.
    ckt.add_capacitor("CQ", q, gnd, s.output_load)?;
    ckt.add_capacitor(
        "CQB",
        qb,
        gnd,
        s.output_load * (1.0 + s.output_load_mismatch),
    )?;
    Ok(())
}

/// Emits the banked n-bit word: the standard cell's PCSA core shared by
/// `bits` MTJ pairs, each behind its own transmission gates, footer and
/// write drivers. Nodes must already be interned.
fn emit_banked_devices(
    ckt: &mut Circuit,
    cfg: &LatchConfig,
    params: &WordParams,
    stored: &[bool],
) -> Result<(), SpiceError> {
    let tech = &cfg.tech;
    let s = &cfg.sizing;
    let gnd = Circuit::GROUND;
    let (vdd, q, qb, sl, sr) = (
        resolve(ckt, "vdd"),
        resolve(ckt, "q"),
        resolve(ckt, "qb"),
        resolve(ckt, "sl"),
        resolve(ckt, "sr"),
    );
    let (wen, wen_b) = (resolve(ckt, "wen"), resolve(ckt, "wen_b"));
    let pc_b = resolve(ckt, "pc_b");

    // Shared PCSA core: pre-charge pair + cross-coupled inverters.
    ckt.add_pmos("PCA", q, pc_b, vdd, tech, s.precharge)?;
    ckt.add_pmos("PCB2", qb, pc_b, vdd, tech, s.precharge)?;
    ckt.add_pmos("P1", q, qb, vdd, tech, s.cross_pmos)?;
    ckt.add_pmos("P2", qb, q, vdd, tech, s.cross_pmos)?;
    ckt.add_nmos("N1", q, qb, sl, tech, s.cross_nmos)?;
    ckt.add_nmos("N2", qb, q, sr, tech, s.cross_nmos)?;

    // Per-bit read branch: transmission gates off the shared taps, a
    // private sense-enable footer and the complementary MTJ chains.
    for (i, &stored_bit) in stored.iter().enumerate() {
        let (w1, w2, wm) = (
            resolve(ckt, &format!("w1_{i}")),
            resolve(ckt, &format!("w2_{i}")),
            resolve(ckt, &format!("wm_{i}")),
        );
        let (sen, sen_b) = (
            resolve(ckt, &format!("sen{i}")),
            resolve(ckt, &format!("sen_b{i}")),
        );
        crate::subckt::transmission_gate(
            ckt,
            &format!("T{i}A"),
            sl,
            w1,
            sen,
            sen_b,
            tech,
            s.transmission,
        )?;
        crate::subckt::transmission_gate(
            ckt,
            &format!("T{i}B"),
            sr,
            w2,
            sen,
            sen_b,
            tech,
            s.transmission,
        )?;
        ckt.add_nmos(&format!("NEN{i}"), wm, sen, gnd, tech, s.sense_enable)?;
        let state = MtjState::from_bit(stored_bit);
        add_mtj_chain(
            ckt,
            &format!("MTJA{i}"),
            w1,
            wm,
            params.series_mtjs,
            &cfg.mtj,
            state,
            WritePolarity::PositiveSetsAntiParallel,
        )?;
        add_mtj_chain(
            ckt,
            &format!("MTJB{i}"),
            wm,
            w2,
            params.series_mtjs,
            &cfg.mtj,
            state.toggled(),
            WritePolarity::PositiveSetsParallel,
        )?;
    }

    // Per-bit write drivers, independent paths exactly as in the paper.
    for i in 0..params.bits {
        let (w1, w2) = (
            resolve(ckt, &format!("w1_{i}")),
            resolve(ckt, &format!("w2_{i}")),
        );
        let (d, db) = (
            resolve(ckt, &format!("d{i}")),
            resolve(ckt, &format!("db{i}")),
        );
        crate::subckt::tristate_inverter(
            ckt,
            &format!("IA{i}"),
            db,
            w1,
            wen,
            wen_b,
            vdd,
            gnd,
            tech,
            s.write_pmos,
            s.write_nmos,
        )?;
        crate::subckt::tristate_inverter(
            ckt,
            &format!("IB{i}"),
            d,
            w2,
            wen,
            wen_b,
            vdd,
            gnd,
            tech,
            s.write_pmos,
            s.write_nmos,
        )?;
    }
    // Output wiring load.
    ckt.add_capacitor("CQ", q, gnd, s.output_load)?;
    ckt.add_capacitor(
        "CQB",
        qb,
        gnd,
        s.output_load * (1.0 + s.output_load_mismatch),
    )?;
    Ok(())
}

fn emit_devices(
    ckt: &mut Circuit,
    params: &WordParams,
    cfg: &LatchConfig,
    stored: &[bool],
) -> Result<(), SpiceError> {
    match params.arm() {
        WordArm::Standard => emit_standard_devices(ckt, cfg, params.series_mtjs, stored),
        WordArm::Proposed => emit_proposed_devices(ckt, cfg, params.series_mtjs, stored),
        WordArm::Banked => emit_banked_devices(ckt, cfg, params, stored),
    }
}

/// Builds the flat, fully-stimulated word circuit: nodes, one voltage
/// source per stimulus entry, then the cell devices.
///
/// For `bits = 1` and `bits = 2` (single MTJs) this reproduces the
/// paper's hand-wired standard and proposed latch circuits
/// **bit-for-bit** — identical node interning order, source order and
/// device order — so Table II's digits do not depend on the generator.
///
/// # Errors
///
/// Propagates [`CellError::Simulation`] from circuit construction.
///
/// # Panics
///
/// Panics if `stored.len() != params.bits` or if `stim` is missing a
/// source the topology requires.
pub fn word_circuit(
    params: &WordParams,
    config: &LatchConfig,
    stim: &WordStimulus,
    stored: &[bool],
) -> Result<Circuit, CellError> {
    assert_eq!(stored.len(), params.bits, "one preset per stored bit");
    telemetry::counter("cells.generator.circuits", 1);
    let mut ckt = Circuit::new();
    for name in word_node_names(params) {
        ckt.node(&name);
    }
    for (source, node_name) in word_source_nodes(params) {
        let node = resolve(&ckt, &node_name);
        ckt.add_voltage_source(&source, node, Circuit::GROUND, stim.wave(&source))?;
    }
    emit_devices(&mut ckt, params, config, stored)?;
    Ok(ckt)
}

/// Builds the word as a reusable [`Subckt`] definition — the cell body
/// without any stimulus sources, its supply/output/control/data nodes
/// exposed as ports. Instances flatten under canonical dotted paths and
/// share one flatten plan per definition (see [`spice::subckt`]).
///
/// # Errors
///
/// Propagates [`CellError::Simulation`] from construction.
///
/// # Panics
///
/// Panics if `stored.len() != params.bits`.
pub fn word_subckt(
    params: &WordParams,
    config: &LatchConfig,
    stored: &[bool],
) -> Result<Subckt, CellError> {
    assert_eq!(stored.len(), params.bits, "one preset per stored bit");
    telemetry::counter("cells.generator.subckts", 1);
    let ports = word_port_names(params);
    let port_refs: Vec<&str> = ports.iter().map(String::as_str).collect();
    let mut sub = Subckt::new(&params.subckt_name(), &port_refs)?;
    let body = sub.body_mut();
    for name in word_node_names(params) {
        body.node(&name);
    }
    emit_devices(body, params, config, stored)?;
    Ok(sub)
}

/// Characterization harness for any [`WordParams`] point — the crate's
/// one cell harness.
///
/// The circuit is built once and bound to a cached
/// [`SimulationSession`]; successive simulations retarget the source
/// waveforms and MTJ presets in place, reusing the session's solver
/// workspace. The cache is per-instance and never shared, so corner
/// sweeps stay trivially parallel with one word per thread.
///
/// At `bits = 1` this is the standard 1-bit latch (paper Fig. 2b), at
/// `bits = 2` the proposed 2-bit latch (Fig. 5): bit 0 lives in its
/// lower MTJ pair (read first, after a VDD pre-charge), bit 1 in the
/// upper pair (read second, after a GND pre-charge).
///
/// # Examples
///
/// ```
/// use cells::{LatchConfig, NvWord, WordParams};
///
/// # fn main() -> Result<(), cells::CellError> {
/// let word = NvWord::new(WordParams::new(4), LatchConfig::default());
/// let out = word.simulate_restore(&[true, false, false, true])?;
/// assert_eq!(out.bits, vec![true, false, false, true]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NvWord {
    params: WordParams,
    config: LatchConfig,
    scheme: ControlScheme,
    session: RefCell<Option<SimulationSession>>,
}

impl Clone for NvWord {
    /// Clones parameters, configuration and scheme; the solver-session
    /// cache starts empty in the clone (rebuilt lazily on first use).
    fn clone(&self) -> Self {
        Self {
            params: self.params,
            config: self.config.clone(),
            scheme: self.scheme,
            session: RefCell::new(None),
        }
    }
}

impl NvWord {
    /// Creates a harness for the given design point. The 2-bit cell
    /// starts on the optimized (Fig. 7) control scheme.
    #[must_use]
    pub fn new(params: WordParams, config: LatchConfig) -> Self {
        Self {
            params,
            config,
            scheme: ControlScheme::default(),
            session: RefCell::new(None),
        }
    }

    /// The same harness with an explicit restore control scheme.
    ///
    /// # Panics
    ///
    /// Panics unless this is the 2-bit cell (`bits = 2`, single MTJs),
    /// the only point with a choice of controller.
    #[must_use]
    pub fn with_scheme(mut self, scheme: ControlScheme) -> Self {
        assert_eq!(
            self.params.arm(),
            WordArm::Proposed,
            "only the 2-bit cell has a choice of control scheme"
        );
        self.scheme = scheme;
        self
    }

    /// The design point.
    #[must_use]
    pub fn params(&self) -> WordParams {
        self.params
    }

    /// Number of stored bits.
    #[must_use]
    pub fn bits(&self) -> usize {
        self.params.bits
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &LatchConfig {
        &self.config
    }

    /// The restore control scheme (meaningful for the 2-bit cell only).
    #[must_use]
    pub fn scheme(&self) -> ControlScheme {
        self.scheme
    }

    /// The word as a reusable subcircuit definition (all MTJs preset to
    /// logic 0).
    ///
    /// # Errors
    ///
    /// Propagates [`CellError::Simulation`] from construction.
    pub fn subckt(&self) -> Result<Subckt, CellError> {
        word_subckt(&self.params, &self.config, &vec![false; self.params.bits])
    }

    /// Cumulative solver work performed by the cached session (zero if
    /// nothing has been simulated yet).
    #[must_use]
    pub fn solver_stats(&self) -> spice::SolverStats {
        self.session
            .borrow()
            .as_ref()
            .map(SimulationSession::stats)
            .unwrap_or_default()
    }

    /// Read-path transistor count (excluding write drivers): 11 for the
    /// 1-bit cell, 16 for the 2-bit cell, `6 + 5n` for banked words.
    #[must_use]
    pub fn read_path_transistors(&self) -> usize {
        self.reference_circuit()
            .devices()
            .iter()
            .filter(|d| d.is_transistor() && !d.name().starts_with('I'))
            .count()
    }

    /// Total transistor count including write drivers.
    #[must_use]
    pub fn total_transistors(&self) -> usize {
        self.reference_circuit().transistor_count()
    }

    fn reference_circuit(&self) -> Circuit {
        let stim = WordStimulus::idle(&self.params, self.config.vdd());
        word_circuit(
            &self.params,
            &self.config,
            &stim,
            &vec![false; self.params.bits],
        )
        .expect("reference build is valid")
    }

    /// The restore control sequence: the 2-bit cell's under the
    /// configured scheme, the banked sequence for every other point.
    #[must_use]
    fn restore_controls(&self) -> RestoreControls {
        let (timing, vdd) = (&self.config.timing, self.config.vdd());
        match self.params.arm() {
            WordArm::Proposed => RestoreControls::Proposed(Box::new(match self.scheme {
                ControlScheme::Explicit => control::proposed_restore(timing, vdd),
                ControlScheme::Optimized => control::proposed_restore_optimized(timing, vdd),
            })),
            WordArm::Standard | WordArm::Banked => {
                RestoreControls::Banked(control::word_restore(timing, vdd, self.params.bits))
            }
        }
    }

    /// Builds the fully-stimulated restore circuit and its control
    /// schedule without simulating — the raw input of
    /// [`NvWord::restore_traces`], so external tooling (netlist dumps,
    /// engine-comparison benchmarks) can drive the circuit through an
    /// engine of its choice.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] if the circuit cannot be built.
    ///
    /// # Panics
    ///
    /// Panics if `stored.len() != self.bits()`.
    pub fn restore_circuit(
        &self,
        stored: &[bool],
    ) -> Result<(Circuit, RestoreControls), CellError> {
        let controls = self.restore_controls();
        let stim = WordStimulus::restore(&self.params, &controls, self.config.vdd());
        let ckt = word_circuit(&self.params, &self.config, &stim, stored)?;
        Ok((ckt, controls))
    }

    /// Runs the restore transient with the MTJ pairs preset to hold
    /// `stored` and returns the raw waveforms together with the control
    /// schedule — the input for waveform dumps (the paper's Fig. 6) and
    /// energy-breakdown studies.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] on solver failure.
    ///
    /// # Panics
    ///
    /// Panics if `stored.len() != self.bits()`.
    pub fn restore_traces(
        &self,
        stored: &[bool],
    ) -> Result<(spice::TransientResult, RestoreControls), CellError> {
        let _span = telemetry::span("cells.word.restore");
        let controls = self.restore_controls();
        let stim = WordStimulus::restore(&self.params, &controls, self.config.vdd());
        // Restore happens at wake-up from a power-gated state: every
        // internal node starts at 0 V (cold start), not at a powered
        // operating point.
        let options = self
            .config
            .transient_options(analysis::StartCondition::Zero);
        let result = self.with_session(&stim, stored, |session| {
            Ok(session.transient_with_options(controls.total(), self.config.time_step, options)?)
        })?;
        Ok((result, controls))
    }

    /// Restores the word with the MTJ pairs preset to hold `stored`,
    /// returning the recovered bits, sense delays and consumed energy.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] on solver failure,
    /// [`CellError::SenseFailure`] if an evaluation does not resolve,
    /// and [`CellError::MeasurementFailure`] if no sense crossing lies
    /// inside its evaluation window.
    ///
    /// # Panics
    ///
    /// Panics if `stored.len() != self.bits()`.
    pub fn simulate_restore(&self, stored: &[bool]) -> Result<RestoreOutcome, CellError> {
        let (result, controls) = self.restore_traces(stored)?;
        let vdd = self.config.vdd();
        let (q_name, qb_name) = sense_nodes(&self.params);
        let q = result.node(q_name)?;
        let qb = result.node(qb_name)?;
        let evals = controls.evals();
        let mut bits = Vec::with_capacity(evals.len());
        let mut sense_delays = Vec::with_capacity(evals.len());
        let mut read_delay = Time::ZERO;
        for (i, eval) in evals.iter().enumerate() {
            let at = eval.end.seconds();
            let bit = resolve_bit(q.value_at(at), qb.value_at(at), vdd).ok_or(
                CellError::SenseFailure {
                    bit: i,
                    q: q.value_at(at),
                    qb: qb.value_at(at),
                },
            )?;
            // From VDD the losing output discharges; from GND the
            // winning output charges.
            let (deciding, edge) = match eval.precharge {
                Precharge::Vdd => (if bit { qb } else { q }, Edge::Falling),
                Precharge::Gnd => (if bit { q } else { qb }, Edge::Rising),
            };
            let what = format!("bit {i} sense delay");
            let delay = sense_delay(deciding, vdd, edge, eval.start, eval.end, &what)?;
            bits.push(bit);
            sense_delays.push(delay);
            read_delay += delay;
        }
        let first = evals.first().expect("at least one bit").start;
        let last = evals.last().expect("at least one bit").end;
        Ok(RestoreOutcome {
            bits,
            sense_delays,
            read_delay,
            sequence_duration: last - first,
            energy: result.total_source_energy(Time::ZERO, controls.total()),
            supply_energy: result.supply_energy("VDD", Time::ZERO, controls.total())?,
            solver: result.solver_stats(),
        })
    }

    /// Runs the store transient — every pair's write drivers push `data`
    /// in parallel over an initial word of `initial` — and returns the
    /// raw waveforms together with the control schedule.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] on solver failure.
    ///
    /// # Panics
    ///
    /// Panics if `data` or `initial` length differs from `self.bits()`.
    pub fn store_traces(
        &self,
        data: &[bool],
        initial: &[bool],
    ) -> Result<(spice::TransientResult, StoreControls), CellError> {
        let (result, controls, _) = self.run_store(data, initial)?;
        Ok((result, controls))
    }

    /// Stores `data` over an initial word of `initial` (all pairs written
    /// in parallel over independent paths).
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] on solver failure and
    /// [`CellError::StoreFailure`] if a pair does not end up holding its
    /// bit complementarily.
    ///
    /// # Panics
    ///
    /// Panics if `data` or `initial` length differs from `self.bits()`.
    pub fn simulate_store(
        &self,
        data: &[bool],
        initial: &[bool],
    ) -> Result<StoreOutcome, CellError> {
        let (result, controls, failed) = self.run_store(data, initial)?;
        if let Some(bit) = failed {
            return Err(CellError::StoreFailure { bit });
        }
        let (energy, pulse_energy, latency) = crate::metrics::store_energies(&result, &controls);
        Ok(StoreOutcome {
            stored: data.to_vec(),
            energy,
            pulse_energy,
            latency,
            switch_count: result.mtj_events().len(),
            solver: result.solver_stats(),
        })
    }

    /// The store transient, plus the first bit whose pair does not end
    /// up holding `data` complementarily.
    fn run_store(
        &self,
        data: &[bool],
        initial: &[bool],
    ) -> Result<(spice::TransientResult, StoreControls, Option<usize>), CellError> {
        let _span = telemetry::span("cells.word.store");
        let vdd = self.config.vdd();
        let controls = control::store(&self.config.timing, vdd);
        // Write dynamics are nanosecond-scale; a coarser nominal step
        // suffices to seed the controller.
        let step = self.config.time_step * 5.0;
        let options = self
            .config
            .transient_options(analysis::StartCondition::OperatingPoint);
        let stim = WordStimulus::store(&self.params, &controls, vdd, data);
        let (result, failed) = self.with_session(&stim, initial, |session| {
            let result = session.transient_with_options(controls.total, step, options)?;
            let ckt = session.circuit();
            let holds = |base: &str, state: MtjState| {
                mtj_chain_names(base, self.params.series_mtjs)
                    .iter()
                    .all(|name| ckt.mtj_state(name) == Some(state))
            };
            let failed = mtj_pairs(&self.params).iter().zip(data).position(
                |((primary, complement), &bit)| {
                    let want = MtjState::from_bit(bit);
                    !(holds(primary, want) && holds(complement, want.toggled()))
                },
            );
            Ok((result, failed))
        })?;
        Ok((result, controls, failed))
    }

    /// Static (leakage) power of the idle word: the total DC power drawn
    /// from all rails with every control inactive.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] if the operating point fails.
    pub fn leakage(&self) -> Result<units::Power, CellError> {
        let _span = telemetry::span("cells.word.leakage");
        let stim = WordStimulus::idle(&self.params, self.config.vdd());
        let op = self.with_session(&stim, &vec![false; self.params.bits], |session| {
            Ok(session.op()?)
        })?;
        // Sum v·(−i) over every source; controls at 0 V contribute 0.
        let mut watts = 0.0;
        for (name, level) in stim.levels() {
            if let Some(i) = op.branch_current(&name) {
                watts += level * -i;
            }
        }
        Ok(units::Power::from_watts(watts))
    }

    /// Table II-style characterization of this word: read metrics
    /// averaged over representative stored patterns, write metrics from
    /// one store, leakage, and the read-path transistor count — all
    /// **per word** (reading/writing all `bits` bits once). The reported
    /// solver work is the **delta** incurred by this call, so a reused
    /// harness does not double-count.
    ///
    /// # Errors
    ///
    /// Propagates [`CellError`] from the underlying simulations.
    pub fn characterize(&self) -> Result<CellMetrics, CellError> {
        let _span = telemetry::span("cells.characterize_word");
        let solver_before = self.solver_stats();
        let (reads, [data, initial]) = characterization_patterns(&self.params);
        let mut energy = Energy::ZERO;
        let mut delay = Time::ZERO;
        for p in &reads {
            let r = self.simulate_restore(p)?;
            energy += r.supply_energy;
            delay += r.read_delay;
        }
        let w = self.simulate_store(&data, &initial)?;
        Ok(CellMetrics {
            read_energy: energy / reads.len() as f64,
            read_delay: delay / reads.len() as f64,
            leakage: self.leakage()?,
            write_energy: w.energy,
            write_latency: w.latency,
            read_transistors: self.read_path_transistors(),
            solver: self.solver_stats() - solver_before,
        })
    }

    /// Runs `f` against the cached [`SimulationSession`], first aiming
    /// the circuit at the given stimulus and MTJ presets. The topology
    /// never changes between runs — only source waveforms and MTJ states
    /// do — so the first call builds the circuit and every later call
    /// retargets the existing session in place.
    fn with_session<T>(
        &self,
        stim: &WordStimulus,
        stored: &[bool],
        f: impl FnOnce(&mut SimulationSession) -> Result<T, CellError>,
    ) -> Result<T, CellError> {
        assert_eq!(stored.len(), self.params.bits, "one preset per bit");
        let mut slot = self.session.borrow_mut();
        let session = match slot.as_mut() {
            Some(session) => {
                telemetry::counter("cells.session_hit", 1);
                session
            }
            None => {
                telemetry::counter("cells.session_miss", 1);
                let ckt = word_circuit(&self.params, &self.config, stim, stored)?;
                slot.insert(
                    SimulationSession::with_solver(ckt, self.config.solver)
                        .with_label(&session_label(&self.params)),
                )
            }
        };
        let ckt = session.circuit_mut();
        for (name, wave) in stim.entries() {
            ckt.set_source_waveform(name, wave.clone())?;
        }
        // `set_mtj_state` discards switching progress, fully rewinding
        // the previous run's writes.
        for ((primary, complement), &bit) in mtj_pairs(&self.params).iter().zip(stored) {
            let state = MtjState::from_bit(bit);
            for name in mtj_chain_names(primary, self.params.series_mtjs) {
                ckt.set_mtj_state(&name, state)?;
            }
            for name in mtj_chain_names(complement, self.params.series_mtjs) {
                ckt.set_mtj_state(&name, state.toggled())?;
            }
        }
        f(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Corner;

    fn config() -> LatchConfig {
        LatchConfig::default()
    }

    fn word(bits: usize) -> NvWord {
        NvWord::new(WordParams::new(bits), config())
    }

    /// Every stored pattern of a `bits`-bit word.
    fn all_patterns(bits: usize) -> Vec<Vec<bool>> {
        (0..1u32 << bits)
            .map(|k| (0..bits).map(|i| k >> i & 1 == 1).collect())
            .collect()
    }

    /// The widths the table-driven harness tests cover: the standard
    /// cell, the proposed cell and the smallest banked word.
    const WIDTHS: [usize; 3] = [1, 2, 3];

    #[test]
    fn params_classify_the_family() {
        assert_eq!(WordParams::new(1).arm(), WordArm::Standard);
        assert_eq!(WordParams::new(2).arm(), WordArm::Proposed);
        assert_eq!(WordParams::new(3).arm(), WordArm::Banked);
        assert_eq!(
            WordParams::new(1).with_series_mtjs(2).arm(),
            WordArm::Banked
        );
        assert_eq!(WordParams::new(4).subckt_name(), "NVWORD4");
        assert_eq!(
            WordParams::new(2).with_series_mtjs(3).subckt_name(),
            "NVWORD2X3"
        );
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_are_rejected() {
        let _ = WordParams::new(0);
    }

    #[test]
    fn transistor_counts_scale_with_bits() {
        // Read path: 6 shared + 5 per bit; write adds 8 per bit.
        for (bits, read, total) in [(1, 11, 19), (2, 16, 32), (3, 21, 45), (4, 26, 58)] {
            let word = NvWord::new(WordParams::new(bits), config());
            assert_eq!(word.read_path_transistors(), read, "bits = {bits}");
            assert_eq!(word.total_transistors(), total, "bits = {bits}");
        }
    }

    #[test]
    fn mtj_chains_lengthen_the_branch() {
        let params = WordParams::new(1).with_series_mtjs(3);
        let stim = WordStimulus::idle(&params, config().vdd());
        let ckt = word_circuit(&params, &config(), &stim, &[true]).expect("build");
        // 2 branches × 3 devices; chain devices carry dotted names.
        for name in mtj_chain_names("MTJA0", 3) {
            assert!(ckt.mtj_state(&name).is_some(), "missing {name}");
        }
        assert_eq!(mtj_chain_names("MTJA0", 3)[0], "MTJA0.S1");
        assert_eq!(mtj_chain_names("MTJB0", 1), vec!["MTJB0".to_owned()]);
        // Internal taps are interned under the chain's dotted path.
        assert!(ckt.find_node("MTJA0.m1").is_some());
        assert!(ckt.find_node("MTJA0.m2").is_some());
    }

    #[test]
    fn word_energy_scales_sublinearly_with_bits() {
        // The shared sense amplifier is the point of the banked cell: a
        // 4-bit word reads for less than four 1-bit cells.
        let one = NvWord::new(WordParams::new(1), config())
            .simulate_restore(&[true])
            .expect("1-bit");
        let four = NvWord::new(WordParams::new(4), config())
            .simulate_restore(&[true, true, true, true])
            .expect("4-bit");
        assert!(
            four.supply_energy < one.supply_energy * 4.0,
            "4-bit {} vs 4 × 1-bit {}",
            four.supply_energy,
            one.supply_energy * 4.0
        );
    }

    #[test]
    fn word_subckt_exposes_ports_and_flattens() {
        let params = WordParams::new(2);
        let sub = word_subckt(&params, &config(), &[false, true]).expect("subckt");
        assert_eq!(sub.name(), "NVWORD2");
        assert!(sub.ports().iter().any(|p| p == "vdd"));
        assert!(sub.ports().iter().any(|p| p == "mtj_read"));
        assert!(sub.ports().iter().any(|p| p == "wen_b"));

        // Two instances share one flatten plan and land under their own
        // dotted prefixes.
        let mut ckt = Circuit::new();
        let ports: Vec<spice::NodeId> = sub
            .ports()
            .iter()
            .map(|p| ckt.node(&format!("u0_{p}")))
            .collect();
        ckt.instantiate("U0", &sub, &ports).expect("U0");
        let ports1: Vec<spice::NodeId> = sub
            .ports()
            .iter()
            .map(|p| ckt.node(&format!("u1_{p}")))
            .collect();
        ckt.instantiate("U1", &sub, &ports1).expect("U1");
        assert!(ckt.find_node("U0.tl").is_some());
        assert!(ckt.find_node("U1.tl").is_some());
        assert!(ckt.mtj_state("U0.MTJ1").is_some());
        assert!(ckt.mtj_state("U1.MTJ4").is_some());
        // 32 transistors per 2-bit instance.
        assert_eq!(ckt.transistor_count(), 64);
    }

    #[test]
    fn banked_subckt_counts_scale() {
        let params = WordParams::new(4);
        let sub = word_subckt(&params, &config(), &[false; 4]).expect("subckt");
        assert_eq!(sub.name(), "NVWORD4");
        let mut ckt = Circuit::new();
        let ports: Vec<spice::NodeId> = sub
            .ports()
            .iter()
            .map(|p| ckt.node(&format!("x_{p}")))
            .collect();
        ckt.instantiate("X0", &sub, &ports).expect("instantiate");
        assert_eq!(ckt.transistor_count(), 58);
        assert!(ckt.find_node("X0.w1_3").is_some());
        assert!(ckt.mtj_state("X0.MTJA3").is_some());
    }

    #[test]
    fn restores_every_pattern() {
        for bits in WIDTHS {
            let w = word(bits);
            for stored in all_patterns(bits) {
                let out = w.simulate_restore(&stored).expect("restore");
                assert_eq!(out.bits, stored, "{bits}-bit pattern {stored:?}");
                assert_eq!(out.sense_delays.len(), bits);
                for d in &out.sense_delays {
                    assert!(d.pico_seconds() > 5.0, "{bits}-bit delay {d}");
                    assert!(d.pico_seconds() < 500.0, "{bits}-bit delay {d}");
                }
                let per_bit = out.energy / bits as f64;
                assert!(per_bit.femto_joules() > 0.1, "{bits}-bit {}", out.energy);
                assert!(per_bit.femto_joules() < 50.0, "{bits}-bit {}", out.energy);
            }
        }
    }

    #[test]
    fn stores_every_pattern_over_its_complement() {
        for bits in WIDTHS {
            let w = word(bits);
            for data in all_patterns(bits) {
                let initial: Vec<bool> = data.iter().map(|b| !b).collect();
                let out = w.simulate_store(&data, &initial).expect("store");
                assert_eq!(out.stored, data);
                assert_eq!(out.switch_count, 2 * bits, "every MTJ must flip");
                assert!(out.latency.nano_seconds() > 0.5, "{}", out.latency);
                assert!(out.latency.nano_seconds() < 3.0, "{}", out.latency);
                let per_bit = out.energy / bits as f64;
                assert!(per_bit.femto_joules() > 20.0, "{bits}-bit {}", out.energy);
                assert!(per_bit.femto_joules() < 800.0, "{bits}-bit {}", out.energy);
            }
        }
    }

    #[test]
    fn rewriting_same_data_switches_nothing() {
        for bits in WIDTHS {
            let data = vec![true; bits];
            let out = word(bits).simulate_store(&data, &data).expect("store");
            assert_eq!(out.switch_count, 0, "bits = {bits}");
            assert_eq!(out.latency, Time::ZERO);
        }
    }

    #[test]
    fn partial_store_flips_only_the_changed_pair() {
        for bits in WIDTHS {
            // Only bit 0 changes: its pair (2 devices) flips, the others
            // already hold their data.
            let mut data = vec![false; bits];
            data[0] = true;
            let out = word(bits)
                .simulate_store(&data, &vec![false; bits])
                .expect("store");
            assert_eq!(out.switch_count, 2, "bits = {bits}");
        }
    }

    #[test]
    fn session_reuse_after_a_store_equals_a_fresh_harness() {
        for bits in WIDTHS {
            let w = word(bits);
            let stored: Vec<bool> = (0..bits).map(|i| i % 2 == 0).collect();
            let first = w.simulate_restore(&stored).expect("first restore");
            // A store flips every MTJ and dirties the session workspace;
            // the repeated restore must still reproduce the first
            // bit-for-bit.
            let flipped: Vec<bool> = stored.iter().map(|b| !b).collect();
            let _ = w.simulate_store(&flipped, &stored).expect("store");
            let again = w.simulate_restore(&stored).expect("second restore");
            assert_eq!(first, again, "bits = {bits}");
            let stats = w.solver_stats();
            assert!(stats.newton_iterations > 0);
            assert!(stats.accepted_steps > 0);
            let fresh = word(bits).simulate_restore(&stored).expect("fresh");
            assert_eq!(first, fresh, "bits = {bits}");
        }
    }

    #[test]
    fn leakage_is_picowatt_to_nanowatt_scale() {
        for bits in [1, 2, 3, 4] {
            let p = word(bits).leakage().expect("leakage");
            assert!(p.pico_watts() > 1.0, "{bits}-bit leakage = {p}");
            assert!(
                p.nano_watts() < 100.0 * bits as f64,
                "{bits}-bit leakage = {p}"
            );
        }
    }

    #[test]
    fn corners_order_leakage_and_read_delay() {
        let base = config();
        for bits in WIDTHS {
            let at = |corner| NvWord::new(WordParams::new(bits), base.at_corner(corner));
            let (slow, typ, fast) = (at(Corner::slow()), word(bits), at(Corner::fast()));
            let leak = |w: &NvWord| w.leakage().expect("leakage");
            assert!(leak(&fast) > leak(&typ), "{bits}-bit fast vs typical");
            assert!(leak(&typ) > leak(&slow), "{bits}-bit typical vs slow");
            let stored = vec![true; bits];
            let delay = |w: &NvWord| w.simulate_restore(&stored).expect("restore").read_delay;
            assert!(delay(&slow) > delay(&fast), "{bits}-bit slow vs fast read");
        }
    }

    #[test]
    fn two_bit_cell_reads_sequentially_for_less_than_two_standard_cells() {
        let one = word(1).simulate_restore(&[true]).expect("standard");
        let two = word(2).simulate_restore(&[true, false]).expect("proposed");
        // Read delay roughly doubles (two sequential senses)...
        let ratio = two.read_delay / one.read_delay;
        assert!((1.3..3.0).contains(&ratio), "delay ratio = {ratio}");
        // ...while supply energy and leakage stay below two standard
        // cells' worth.
        assert!(
            two.supply_energy < one.supply_energy * 2.0,
            "proposed {} vs 2× standard {}",
            two.supply_energy,
            one.supply_energy * 2.0
        );
        let leak_one = word(1).leakage().expect("standard leakage");
        let leak_two = word(2).leakage().expect("proposed leakage");
        assert!(
            leak_two.watts() <= leak_one.watts() * 2.0,
            "{leak_two} vs 2× {leak_one}"
        );
    }

    #[test]
    fn control_schemes_agree_on_bits_and_supply_energy() {
        // The Fig. 7 controller derives the same internal windows from
        // fewer nets; the circuit behaviour (and hence supply energy)
        // must be essentially unchanged.
        let explicit = word(2).with_scheme(ControlScheme::Explicit);
        assert_eq!(explicit.scheme(), ControlScheme::Explicit);
        assert_eq!(word(2).scheme(), ControlScheme::Optimized);
        let both = explicit.simulate_restore(&[true, true]).expect("explicit");
        assert_eq!(both.bits, [true, true]);
        let e = explicit.simulate_restore(&[true, false]).expect("explicit");
        let o = word(2).simulate_restore(&[true, false]).expect("optimized");
        assert_eq!(e.bits, o.bits);
        let ratio = o.supply_energy / e.supply_energy;
        assert!((0.8..1.2).contains(&ratio), "supply ratio = {ratio}");
    }

    #[test]
    #[should_panic(expected = "only the 2-bit cell")]
    fn scheme_is_fixed_off_the_two_bit_cell() {
        let _ = word(1).with_scheme(ControlScheme::Explicit);
    }

    #[test]
    fn characterization_covers_the_family() {
        for (bits, read_transistors) in [(1, 11), (2, 16), (3, 21)] {
            let m = word(bits).characterize().expect("characterize");
            assert_eq!(m.read_transistors, read_transistors);
            assert!(m.read_energy.femto_joules() > 0.1);
            assert!(m.write_energy.femto_joules() > 10.0);
            assert!(m.read_delay.pico_seconds() > 5.0);
            assert!(m.solver.newton_iterations > 0);
        }
    }
}
