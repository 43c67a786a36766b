//! Control-signal sequencing (the paper's Fig. 6 working sequences and
//! the Fig. 7 optimized pre-charge controller).
//!
//! Control signals are modelled as ideal voltage sources with trapezoidal
//! edges. [`word_restore`] sequences the 1-bit cell and every banked
//! word (one VDD pre-charge and evaluation per bit); two generators,
//! chosen by [`ControlScheme`], sequence the proposed 2-bit latch:
//!
//! * [`proposed_restore`] — the explicit three-signal scheme of Fig. 6(b):
//!   independent `PC_VDD`, `PC_GND` and `SEL`-type signals;
//! * [`proposed_restore_optimized`] — the Fig. 7 scheme where a single
//!   `PC` signal plus `R_en` derive every internal control: `P4`/`N4`
//!   gates follow `PC̄`, VDD-pre-charge is active while `PC·R̄_en`, and
//!   GND-pre-charge while `P̄C·R̄_en`. Fewer independent transitions is
//!   where the read-energy saving of Table II comes from.

use spice::SourceWaveform;
use units::{Time, Voltage};

use crate::config::Timing;

/// Builds a gate waveform that is `idle` outside the given windows and
/// `active` inside them, with trapezoidal `edge` transitions starting at
/// each window boundary.
///
/// # Panics
///
/// Panics if windows overlap or are unordered (construction bug).
#[must_use]
pub fn gate_waveform(
    windows: &[(Time, Time)],
    idle: Voltage,
    active: Voltage,
    edge: Time,
) -> SourceWaveform {
    if windows.is_empty() {
        return SourceWaveform::Dc(idle.volts());
    }
    let mut points: Vec<(Time, Voltage)> = vec![(Time::ZERO, idle)];
    let mut last_end = Time::ZERO;
    for &(start, end) in windows {
        assert!(
            start >= last_end && end > start,
            "control windows must be ordered and non-overlapping"
        );
        points.push((start, idle));
        points.push((start + edge, active));
        points.push((end, active));
        points.push((end + edge, idle));
        last_end = end + edge;
    }
    // Deduplicate a possible coincident first point.
    if points.len() >= 2 && points[1].0 == points[0].0 {
        points.remove(0);
    }
    SourceWaveform::pwl(points)
}

/// The rail a sense evaluation's outputs are pre-charged to. It fixes
/// how the read resolves: from VDD the losing output discharges, from
/// GND the winning output charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precharge {
    /// Outputs start high; the sense delay is the loser's falling edge.
    Vdd,
    /// Outputs start low; the sense delay is the winner's rising edge.
    Gnd,
}

/// One sense evaluation of a restore sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Sense-enable edge: the evaluation begins.
    pub start: Time,
    /// The window closes; the bit is sampled here.
    pub end: Time,
    /// Rail the outputs were pre-charged to before `start`.
    pub precharge: Precharge,
}

/// Control waveforms and key instants for an n-bit banked word restore:
/// `bits` sequential pre-charge + evaluate phases sharing one pre-charge
/// signal, with one sense-enable pair per bit. At `bits == 1` this is
/// the standard 1-bit latch's restore.
#[derive(Debug, Clone, PartialEq)]
pub struct WordRestoreControls {
    /// Shared pre-charge PMOS gate (active low), pulsed once per phase.
    pub pc_b: SourceWaveform,
    /// Per-bit sense enables (active high), one pulse each.
    pub sen: Vec<SourceWaveform>,
    /// Complements of `sen` (transmission-gate PMOS side).
    pub sen_b: Vec<SourceWaveform>,
    /// Per-bit evaluations in read order, each after a VDD pre-charge.
    pub evals: Vec<Evaluation>,
    /// Total simulation window.
    pub total: Time,
}

/// Generates the restore sequence for an n-bit banked word: phase `i`
/// pre-charges the shared sense outputs to VDD and then evaluates bit
/// `i`'s MTJ pair.
///
/// # Panics
///
/// Panics if `bits` is zero.
#[must_use]
pub fn word_restore(timing: &Timing, vdd: f64, bits: usize) -> WordRestoreControls {
    assert!(bits > 0, "a word restore needs at least one bit");
    let hi = Voltage::from_volts(vdd);
    let lo = Voltage::ZERO;
    let e = timing.edge;
    let period = timing.precharge + timing.evaluate;
    let mut pc_windows = Vec::with_capacity(bits);
    let mut windows = Vec::with_capacity(bits);
    for i in 0..bits {
        let t0 = timing.lead_in + period * i as f64;
        let t1 = t0 + timing.precharge;
        let t2 = t1 + timing.evaluate;
        pc_windows.push((t0, t1));
        windows.push((t1 + e, t2));
    }
    let total = windows.last().expect("bits > 0").1 + timing.lead_in;
    WordRestoreControls {
        pc_b: gate_waveform(&pc_windows, hi, lo, e),
        sen: windows
            .iter()
            .map(|&w| gate_waveform(&[w], lo, hi, e))
            .collect(),
        sen_b: windows
            .iter()
            .map(|&w| gate_waveform(&[w], hi, lo, e))
            .collect(),
        evals: windows
            .into_iter()
            .map(|(start, end)| Evaluation {
                start,
                end,
                precharge: Precharge::Vdd,
            })
            .collect(),
        total,
    }
}

/// Which restore control scheme sequences the proposed 2-bit cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlScheme {
    /// Fig. 6(b): independent PC_VDD / PC_GND / SEL signals.
    Explicit,
    /// Fig. 7: single PC plus R_en derive every internal control.
    #[default]
    Optimized,
}

/// Control waveforms and key instants for the proposed 2-bit restore.
#[derive(Debug, Clone, PartialEq)]
pub struct ProposedRestoreControls {
    /// VDD-pre-charge PMOS gates (active low).
    pub pcv_b: SourceWaveform,
    /// GND-pre-charge NMOS gates (active high).
    pub pcg: SourceWaveform,
    /// `R_en`: N3 footer and transmission-gate NMOS side (active high).
    pub ren: SourceWaveform,
    /// Complement of `ren` (transmission-gate PMOS side).
    pub ren_b: SourceWaveform,
    /// P3 header gate (active low; on during both evaluations).
    pub sel_b: SourceWaveform,
    /// P4 equalizer gate (active low; on while the lower pair is read).
    pub p4_b: SourceWaveform,
    /// N4 equalizer gate (active high; on while the upper pair is read).
    pub n4: SourceWaveform,
    /// The lower-pair read (after a VDD pre-charge), then the upper-pair
    /// read (after a GND pre-charge).
    pub evals: [Evaluation; 2],
    /// Total simulation window.
    pub total: Time,
}

/// Phase boundaries shared by both proposed-restore generators.
struct ProposedPhases {
    t0: Time,
    t1: Time,
    t2: Time,
    t3: Time,
    t4: Time,
    total: Time,
}

impl ProposedPhases {
    fn new(timing: &Timing) -> Self {
        let t0 = timing.lead_in;
        let t1 = t0 + timing.precharge; // VDD pre-charge done
        let t2 = t1 + timing.evaluate; // lower eval done
        let t3 = t2 + timing.precharge; // GND pre-charge done
        let t4 = t3 + timing.evaluate; // upper eval done
        let total = t4 + timing.lead_in;
        Self {
            t0,
            t1,
            t2,
            t3,
            t4,
            total,
        }
    }

    /// The two evaluation windows: lower pair, then upper pair.
    fn windows(&self, edge: Time) -> [(Time, Time); 2] {
        [(self.t1 + edge, self.t2), (self.t3 + edge, self.t4)]
    }

    fn evals(&self, edge: Time) -> [Evaluation; 2] {
        let [(s0, e0), (s1, e1)] = self.windows(edge);
        [
            Evaluation {
                start: s0,
                end: e0,
                precharge: Precharge::Vdd,
            },
            Evaluation {
                start: s1,
                end: e1,
                precharge: Precharge::Gnd,
            },
        ]
    }
}

/// Generates the explicit (Fig. 6b) restore sequence for the proposed
/// 2-bit latch: pre-charge VDD → sense lower pair → pre-charge GND →
/// sense upper pair.
#[must_use]
pub fn proposed_restore(timing: &Timing, vdd: f64) -> ProposedRestoreControls {
    let hi = Voltage::from_volts(vdd);
    let lo = Voltage::ZERO;
    let e = timing.edge;
    let p = ProposedPhases::new(timing);
    let [eval0, eval1] = p.windows(e);
    ProposedRestoreControls {
        pcv_b: gate_waveform(&[(p.t0, p.t1)], hi, lo, e),
        pcg: gate_waveform(&[(p.t2 + e, p.t3)], lo, hi, e),
        ren: gate_waveform(&[eval0, eval1], lo, hi, e),
        ren_b: gate_waveform(&[eval0, eval1], hi, lo, e),
        sel_b: gate_waveform(&[eval0, eval1], hi, lo, e),
        p4_b: gate_waveform(&[eval0], hi, lo, e),
        n4: gate_waveform(&[eval1], lo, hi, e),
        evals: p.evals(e),
        total: p.total,
    }
}

/// Generates the Fig. 7 optimized restore sequence: the same phase
/// boundaries, but every internal control is derived from just `PC` and
/// `R_en` —
///
/// * `P4`/`N4` gates are both driven by `PC̄` (one shared net),
/// * VDD-pre-charge is active during `PC · R̄_en`,
/// * GND-pre-charge during `P̄C · R̄_en`.
///
/// The derived waveforms therefore transition strictly less often than
/// the explicit scheme's, which is measurable as lower control energy.
#[must_use]
pub fn proposed_restore_optimized(timing: &Timing, vdd: f64) -> ProposedRestoreControls {
    let hi = Voltage::from_volts(vdd);
    let lo = Voltage::ZERO;
    let e = timing.edge;
    let p = ProposedPhases::new(timing);
    let [eval0, eval1] = p.windows(e);
    // PC is high through the VDD-pre-charge + lower-eval half, low after.
    // P4 gate = N4 gate = PC̄: one signal, two transitions total.
    let pc_bar = gate_waveform(&[(p.t2 + e, p.total)], lo, hi, e);
    ProposedRestoreControls {
        // PC·R̄en: active from the start of the window until eval0 begins.
        pcv_b: gate_waveform(&[(p.t0, p.t1)], hi, lo, e),
        // P̄C·R̄en: between the halves, and again after eval1 (idle tail
        // parks the outputs at GND, the desired pre-write condition).
        pcg: gate_waveform(&[(p.t2 + e, p.t3), (p.t4 + e, p.total)], lo, hi, e),
        ren: gate_waveform(&[eval0, eval1], lo, hi, e),
        ren_b: gate_waveform(&[eval0, eval1], hi, lo, e),
        sel_b: gate_waveform(&[eval0, eval1], hi, lo, e),
        p4_b: pc_bar.clone(),
        n4: pc_bar,
        evals: p.evals(e),
        total: p.total,
    }
}

/// A restore sequence of any NV word: the banked sequence (which also
/// drives the 1-bit cell) or the 2-bit cell's VDD-then-GND sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreControls {
    /// One VDD pre-charge and evaluation per bit.
    Banked(WordRestoreControls),
    /// The proposed 2-bit cell's sequence.
    Proposed(Box<ProposedRestoreControls>),
}

impl RestoreControls {
    /// The evaluations in read order (one per bit).
    #[must_use]
    pub fn evals(&self) -> &[Evaluation] {
        match self {
            Self::Banked(c) => &c.evals,
            Self::Proposed(c) => &c.evals,
        }
    }

    /// Total simulation window.
    #[must_use]
    pub fn total(&self) -> Time {
        match self {
            Self::Banked(c) => c.total,
            Self::Proposed(c) => c.total,
        }
    }
}

/// Control waveforms and key instants for a store (write) phase.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreControls {
    /// Write-driver enable (active high).
    pub wen: SourceWaveform,
    /// Complement of `wen`.
    pub wen_b: SourceWaveform,
    /// GND pre-charge: parks the sense outputs at ground *before* the
    /// write pulse, then releases them so no DC path can shunt the write
    /// current (see the reconstruction note in DESIGN.md).
    pub pcg: SourceWaveform,
    /// Instant the write pulse begins.
    pub write_start: Time,
    /// Instant the write pulse ends.
    pub write_end: Time,
    /// Total simulation window.
    pub total: Time,
}

/// Generates the store sequence: the outputs are first parked at GND
/// (the paper's stated pre-write condition), then a single write pulse
/// of `timing.write_pulse` drives both complementary MTJ pairs — the
/// write path is identical for either latch design, the paper's argument
/// for not sharing write components.
#[must_use]
pub fn store(timing: &Timing, vdd: f64) -> StoreControls {
    let hi = Voltage::from_volts(vdd);
    let lo = Voltage::ZERO;
    let t0 = timing.lead_in;
    let t1 = t0 + timing.write_pulse;
    let total = t1 + timing.lead_in * 2.0;
    StoreControls {
        wen: gate_waveform(&[(t0, t1)], lo, hi, timing.edge),
        wen_b: gate_waveform(&[(t0, t1)], hi, lo, timing.edge),
        pcg: gate_waveform(&[(timing.edge, t0 - timing.edge)], lo, hi, timing.edge),
        write_start: t0,
        write_end: t1,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> Timing {
        Timing::default()
    }

    #[test]
    fn gate_waveform_levels() {
        let w = gate_waveform(
            &[(
                Time::from_pico_seconds(100.0),
                Time::from_pico_seconds(200.0),
            )],
            Voltage::ZERO,
            Voltage::from_volts(1.1),
            Time::from_pico_seconds(10.0),
        );
        assert_eq!(w.value_at(0.0), 0.0);
        assert_eq!(w.value_at(150e-12), 1.1);
        assert_eq!(w.value_at(300e-12), 0.0);
    }

    #[test]
    fn gate_waveform_multi_window() {
        let w = gate_waveform(
            &[
                (
                    Time::from_pico_seconds(100.0),
                    Time::from_pico_seconds(200.0),
                ),
                (
                    Time::from_pico_seconds(400.0),
                    Time::from_pico_seconds(500.0),
                ),
            ],
            Voltage::from_volts(1.1),
            Voltage::ZERO,
            Time::from_pico_seconds(10.0),
        );
        assert_eq!(w.value_at(50e-12), 1.1);
        assert_eq!(w.value_at(150e-12), 0.0);
        assert_eq!(w.value_at(300e-12), 1.1);
        assert_eq!(w.value_at(450e-12), 0.0);
        assert_eq!(w.value_at(600e-12), 1.1);
    }

    #[test]
    fn empty_windows_give_dc_idle() {
        let w = gate_waveform(&[], Voltage::from_volts(1.1), Voltage::ZERO, Time::ZERO);
        assert_eq!(w, SourceWaveform::Dc(1.1));
    }

    #[test]
    #[should_panic(expected = "ordered and non-overlapping")]
    fn overlapping_windows_panic() {
        let _ = gate_waveform(
            &[
                (
                    Time::from_pico_seconds(100.0),
                    Time::from_pico_seconds(300.0),
                ),
                (
                    Time::from_pico_seconds(200.0),
                    Time::from_pico_seconds(400.0),
                ),
            ],
            Voltage::ZERO,
            Voltage::from_volts(1.1),
            Time::from_pico_seconds(10.0),
        );
    }

    #[test]
    fn one_bit_word_restore_phase_order() {
        let c = word_restore(&timing(), 1.1, 1);
        let [eval] = c.evals[..] else {
            panic!("one evaluation per bit")
        };
        assert!(eval.start > Time::ZERO);
        assert!(eval.end > eval.start);
        assert!(c.total > eval.end);
        assert_eq!(eval.precharge, Precharge::Vdd);
        // During pre-charge the PC̄ signal is low and SEN is low.
        let mid_pc = (timing().lead_in + timing().precharge * 0.5).seconds();
        assert_eq!(c.pc_b.value_at(mid_pc), 0.0);
        assert_eq!(c.sen[0].value_at(mid_pc), 0.0);
        // During evaluation SEN is high, PC̄ high.
        let mid_eval = ((eval.start + eval.end) * 0.5).seconds();
        assert_eq!(c.sen[0].value_at(mid_eval), 1.1);
        assert_eq!(c.pc_b.value_at(mid_eval), 1.1);
        assert_eq!(c.sen_b[0].value_at(mid_eval), 0.0);
    }

    #[test]
    fn proposed_restore_reads_sequentially() {
        let c = proposed_restore(&timing(), 1.1);
        let [e0, e1] = c.evals;
        assert!(e0.start < e0.end);
        assert!(e0.end < e1.start);
        assert!(e1.start < e1.end);
        // The upper read follows the GND pre-charge.
        assert_eq!(e0.precharge, Precharge::Vdd);
        assert_eq!(e1.precharge, Precharge::Gnd);
        let mid0 = ((e0.start + e0.end) * 0.5).seconds();
        let mid1 = ((e1.start + e1.end) * 0.5).seconds();
        // Lower eval: ren high, P4 on (gate low), N4 off, P3 on.
        assert_eq!(c.ren.value_at(mid0), 1.1);
        assert_eq!(c.p4_b.value_at(mid0), 0.0);
        assert_eq!(c.n4.value_at(mid0), 0.0);
        assert_eq!(c.sel_b.value_at(mid0), 0.0);
        // Upper eval: ren high, N4 on, P4 off.
        assert_eq!(c.ren.value_at(mid1), 1.1);
        assert_eq!(c.n4.value_at(mid1), 1.1);
        assert_eq!(c.p4_b.value_at(mid1), 1.1);
        // GND pre-charge between the halves.
        let between = ((e0.end + e1.start) * 0.5).seconds();
        assert_eq!(c.pcg.value_at(between), 1.1);
        assert_eq!(c.ren.value_at(between), 0.0);
    }

    #[test]
    fn optimized_scheme_merges_equalizer_controls() {
        let c = proposed_restore_optimized(&timing(), 1.1);
        // P4 and N4 gates share the PC̄ net.
        assert_eq!(c.p4_b, c.n4);
        // Same evaluation windows as the explicit scheme.
        let e = proposed_restore(&timing(), 1.1);
        assert_eq!(c.evals, e.evals);
        // The tail parks the outputs at GND (write precondition).
        let tail = (c.total - timing().lead_in * 0.25).seconds();
        assert_eq!(c.pcg.value_at(tail), 1.1);
    }

    #[test]
    fn optimized_scheme_needs_fewer_control_nets() {
        // Fig. 7's simplification: the three pre-charge/stabilizer
        // dependencies collapse onto one PC-derived net — P4 and N4
        // share a waveform, so the distinct-control count drops.
        let t = timing();
        let explicit = proposed_restore(&t, 1.1);
        let optimized = proposed_restore_optimized(&t, 1.1);
        let distinct = |c: &ProposedRestoreControls| {
            let waves = [&c.pcv_b, &c.pcg, &c.p4_b, &c.n4];
            let mut unique: Vec<&SourceWaveform> = Vec::new();
            for w in waves {
                if !unique.contains(&w) {
                    unique.push(w);
                }
            }
            unique.len()
        };
        assert!(
            distinct(&optimized) < distinct(&explicit),
            "optimized {} vs explicit {}",
            distinct(&optimized),
            distinct(&explicit)
        );
    }

    #[test]
    fn store_pulse_window() {
        let c = store(&timing(), 1.1);
        assert_eq!(c.write_start, timing().lead_in);
        assert_eq!(c.write_end, timing().lead_in + timing().write_pulse);
        let mid = ((c.write_start + c.write_end) * 0.5).seconds();
        assert_eq!(c.wen.value_at(mid), 1.1);
        assert_eq!(c.wen_b.value_at(mid), 0.0);
        assert_eq!(c.wen.value_at(0.0), 0.0);
        assert!(c.total > c.write_end);
    }

    #[test]
    fn word_restore_phases_are_sequential_and_disjoint() {
        let t = timing();
        let c = word_restore(&t, 1.1, 4);
        assert_eq!(c.sen.len(), 4);
        assert_eq!(c.sen_b.len(), 4);
        assert_eq!(c.evals.len(), 4);
        for pair in c.evals.windows(2) {
            assert!(pair[0].end < pair[1].start, "windows overlap: {pair:?}");
        }
        // Each bit's sense enable is active only inside its own window.
        for (i, eval) in c.evals.iter().enumerate() {
            let mid = ((eval.start + eval.end) * 0.5).seconds();
            for (j, sen) in c.sen.iter().enumerate() {
                let v = sen.value_at(mid);
                if i == j {
                    assert_eq!(v, 1.1, "bit {j} inactive in its own window");
                } else {
                    assert_eq!(v, 0.0, "bit {j} active in bit {i}'s window");
                }
            }
        }
        assert!(c.total > c.evals[3].end);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn word_restore_rejects_zero_bits() {
        let _ = word_restore(&timing(), 1.1, 0);
    }
}
