//! MNA system assembly: the slot-resolved [`StampPlan`] and the one
//! [`assemble`] routine both LU engines share.
//!
//! A `StampPlan` is built once per circuit topology and LU engine. Every
//! matrix add that a device, a capacitor companion or a gmin shunt can
//! make is enumerated statically as a `(row, col)` pair. The pairs
//! freeze the sparse pattern, and each is then resolved to a *slot*: a
//! CSR index into the pattern's value array on the sparse engine, or
//! `row·n + col` into [`DenseMatrix`](crate::linalg::DenseMatrix)'s
//! row-major storage on the dense one. This is SPICE's element-pointer
//! (`TSTALLOC`) scheme: an add is one indexed `+=`, with no dispatch and
//! no `(row, col)` lookup.
//!
//! Assembling the system at an iterate is two passes over the plan's
//! device-ordered stamp table:
//!
//! 1. [`evaluate_mosfets`] evaluates every MOSFET, in one batch, into
//!    the workspace's operating-point buffer;
//! 2. [`assemble`] zeroes the values and RHS, stamps the gmin shunts,
//!    scatters the stamp table in device order, then the capacitor
//!    companions.
//!
//! Every slot thus sums the same terms in the same order as the
//! straight-line assembler in [`reference`](super::reference), so the
//! values are bit-identical to it.
//!
//! Stamps read *live* device parameters (resistance, waveforms, MTJ
//! state, MOSFET model and geometry) through the circuit on every call,
//! so edits made between runs via [`Circuit::devices_mut`] or the
//! snapshot API are honoured. An edit that changes what the plan
//! resolved instead — a device's kind or terminals, or a capacitance
//! flattened into a companion — makes [`StampPlan::is_stale`] true, and
//! the session rebuilds the plan.

use crate::circuit::Circuit;
use crate::device::Device;
use crate::linalg::SparsePattern;
use crate::mosfet::MosfetOperatingPoint;

use super::{Integrator, SolverKind, GMIN_FLOOR};

/// Computes a node voltage from the unknown vector (`None` = ground).
pub(super) fn vof(x: &[f64], idx: Option<usize>) -> f64 {
    idx.map_or(0.0, |i| x[i])
}

/// Slot-array entry of an add that does not exist (a ground terminal).
const NO_SLOT: u32 = u32::MAX;

/// A matrix add as a `(row, col)` pair; `None` when a terminal is ground.
type Entry = Option<(usize, usize)>;

/// The adds of a conductance between `a` and `b`, in stamping order:
/// `(a, a)`, `(a, b)`, `(b, b)`, `(b, a)`.
fn conductance_entries(a: Option<usize>, b: Option<usize>) -> [Entry; 4] {
    [a.map(|i| (i, i)), a.zip(b), b.map(|j| (j, j)), b.zip(a)]
}

/// Stamp-table nodes and adds of a conductance between `a` and `b`.
fn two_terminal(a: Option<usize>, b: Option<usize>) -> ([Option<usize>; 3], [Entry; 6]) {
    let [aa, ab, bb, ba] = conductance_entries(a, b);
    ([a, b, None], [aa, ab, bb, ba, None, None])
}

/// Appends the present `entries` to `adds` and writes each one's index
/// there into the matching element of `slots`, a provisional slot until
/// the pattern is frozen (absent adds stay [`NO_SLOT`]).
fn record(adds: &mut Vec<(u32, u32)>, entries: &[Entry], slots: &mut [u32]) {
    for (entry, slot) in entries.iter().zip(slots) {
        if let Some((r, c)) = *entry {
            *slot = adds.len() as u32;
            adds.push((r as u32, c as u32));
        }
    }
}

/// Adds `terms[k]` into slot `slots[k]`, skipping absent adds, in order.
#[inline]
fn scatter<const N: usize>(values: &mut [f64], slots: &[u32], terms: [f64; N]) {
    for (&slot, term) in slots.iter().zip(terms) {
        if slot != NO_SLOT {
            values[slot as usize] += term;
        }
    }
}

/// Evaluation context shared by every stamp in one assembly pass.
#[derive(Debug, Clone, Copy)]
pub(super) struct EvalCtx {
    /// Simulation time the waveforms are evaluated at.
    pub t: f64,
    /// Scale applied to every independent source value — 1.0 in normal
    /// operation, ramped 0 → 1 by the source-stepping recovery ladder.
    pub src_scale: f64,
}

/// One device's row of the stamp table. Capacitors have none: they are
/// stamped as companions.
#[derive(Debug, Clone, Copy)]
struct DeviceStamp {
    /// Index in [`Circuit::devices`]; live parameters are read through it.
    dev: usize,
    /// Terminal unknowns (`None` = ground): `[a, b, -]` for resistors,
    /// MTJs and current sources, `[pos, neg, branch]` for voltage
    /// sources, `[d, g, s]` for MOSFETs.
    nodes: [Option<usize>; 3],
    /// The device's matrix adds in stamping order, resolved to slots.
    slots: [u32; 6],
}

/// A flattened capacitor with resolved terminals and companion slots
/// (transient stamping); the geometry never changes, only the per-step
/// history in [`CapState`].
#[derive(Debug, Clone, Copy)]
pub(super) struct CapDescriptor {
    pub ia: Option<usize>,
    pub ib: Option<usize>,
    pub farads: f64,
    slots: [u32; 4],
}

/// Per-capacitor integration history, stored in the workspace.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CapState {
    pub v_prev: f64,
    pub i_prev: f64,
}

/// Companion-model context for one transient Newton solve: borrowed
/// capacitor histories plus the integrator and step size.
pub(super) struct Companions<'a> {
    pub states: &'a [CapState],
    pub integrator: Integrator,
    pub dt: f64,
}

/// An MTJ's device index and terminal unknowns, pre-resolved for the
/// post-step magnetisation advance.
#[derive(Debug, Clone, Copy)]
pub(super) struct MtjTerminals {
    pub dev: usize,
    pub ia: Option<usize>,
    pub ib: Option<usize>,
}

/// Everything a plan resolves from a device and does not read live: its
/// kind and terminal nodes, a voltage source's branch, and the
/// capacitances flattened into companions (a capacitor's value, a
/// MOSFET's parasitics).
fn plan_key(d: &Device) -> [u64; 6] {
    let node = |n: &crate::circuit::NodeId| n.index() as u64;
    match d {
        Device::Resistor { a, b, .. } => [0, node(a), node(b), 0, 0, 0],
        Device::Capacitor { a, b, farads, .. } => [1, node(a), node(b), farads.to_bits(), 0, 0],
        Device::VoltageSource {
            pos, neg, branch, ..
        } => [2, node(pos), node(neg), *branch as u64, 0, 0],
        Device::CurrentSource { pos, neg, .. } => [3, node(pos), node(neg), 0, 0, 0],
        Device::Mosfet {
            d,
            g,
            s,
            model,
            w,
            l,
            ..
        } => [
            4,
            node(d),
            node(g),
            node(s),
            model.cgs(*w, *l).to_bits(),
            model.cjunction(*w).to_bits(),
        ],
        Device::Mtj { a, b, .. } => [5, node(a), node(b), 0, 0, 0],
    }
}

/// Everything an analysis needs that depends only on circuit *topology*
/// (and its capacitances), resolved once and reused across Newton iterations, time steps, sweep
/// points and repeated runs.
#[derive(Debug)]
pub(crate) struct StampPlan {
    /// The LU engine the slots address.
    pub(super) solver: SolverKind,
    /// One row per non-capacitor device, in device order.
    stamps: Vec<DeviceStamp>,
    /// Diagonal slots of the node rows, where the gmin shunts go.
    gmin_slots: Vec<u32>,
    pub(super) caps: Vec<CapDescriptor>,
    pub(super) mtjs: Vec<MtjTerminals>,
    /// Number of MOSFETs: the length of the operating-point buffer.
    pub(super) mosfets: usize,
    /// Device indices of waveform-carrying sources (breakpoint scan).
    pub(super) wave_devs: Vec<usize>,
    /// `(source name, branch unknown index)`, sorted by name.
    pub(super) branches: Vec<(String, usize)>,
    pub(super) n_nodes: usize,
    pub(super) n_unknowns: usize,
    /// [`plan_key`] of every device at build time.
    keys: Vec<[u64; 6]>,
    /// Structural nonzero pattern of the assembled matrix: the union of
    /// every enumerated add, shared by op, DC and transient assembly
    /// (companion slots hold exact zeros outside transients).
    pub(super) sparse: SparsePattern,
}

impl StampPlan {
    /// Resolves every device of `ckt` into the stamp table and side
    /// tables, with slots addressing `solver`'s matrix storage.
    pub(crate) fn build(ckt: &Circuit, solver: SolverKind) -> Self {
        let n_nodes = ckt.node_count() - 1;
        let n = ckt.unknown_count();
        let devices = ckt.devices().len();
        // Every matrix add, in the order it is enumerated. Until the
        // pattern is frozen, a slot array holds indices into this list.
        // A MOSFET, the most of any device, makes 6 adds and 16 more
        // through its four parasitic companions.
        let mut adds = Vec::with_capacity(n_nodes + 22 * devices);
        let mut gmin_slots = vec![NO_SLOT; n_nodes];
        for (i, slot) in gmin_slots.iter_mut().enumerate() {
            record(&mut adds, &[Some((i, i))], std::slice::from_mut(slot));
        }
        let mut stamps = Vec::with_capacity(devices);
        let mut caps = Vec::with_capacity(4 * devices);
        let mut mtjs = Vec::new();
        let mut mosfets = 0;
        let mut wave_devs = Vec::new();
        let mut branches = Vec::new();
        let vidx = |node| ckt.voltage_index(node);
        let cap = |adds: &mut Vec<_>, ia, ib, farads| {
            let mut slots = [NO_SLOT; 4];
            record(adds, &conductance_entries(ia, ib), &mut slots);
            CapDescriptor {
                ia,
                ib,
                farads,
                slots,
            }
        };

        for (dev, d) in ckt.devices().iter().enumerate() {
            let (nodes, entries): ([Option<usize>; 3], [Entry; 6]) = match d {
                Device::Resistor { a, b, .. } => two_terminal(vidx(*a), vidx(*b)),
                Device::Mtj { a, b, .. } => {
                    let (ia, ib) = (vidx(*a), vidx(*b));
                    mtjs.push(MtjTerminals { dev, ia, ib });
                    two_terminal(ia, ib)
                }
                Device::Capacitor { a, b, farads, .. } => {
                    caps.push(cap(&mut adds, vidx(*a), vidx(*b), *farads));
                    continue;
                }
                Device::VoltageSource {
                    name,
                    pos,
                    neg,
                    branch,
                    ..
                } => {
                    let br = ckt.branch_index(*branch);
                    branches.push((name.clone(), br));
                    wave_devs.push(dev);
                    let (ip, in_) = (vidx(*pos), vidx(*neg));
                    let entries = [
                        ip.map(|p| (p, br)),
                        ip.map(|p| (br, p)),
                        in_.map(|m| (m, br)),
                        in_.map(|m| (br, m)),
                        None,
                        None,
                    ];
                    ([ip, in_, Some(br)], entries)
                }
                Device::CurrentSource { pos, neg, .. } => {
                    wave_devs.push(dev);
                    ([vidx(*pos), vidx(*neg), None], [None; 6])
                }
                Device::Mosfet {
                    d,
                    g,
                    s,
                    model,
                    w,
                    l,
                    ..
                } => {
                    let (di, gi, si) = (vidx(*d), vidx(*g), vidx(*s));
                    mosfets += 1;
                    // Parasitics, flattened in the same order the seed
                    // engine used: gate-source, gate-drain, junctions.
                    let cgs = model.cgs(*w, *l);
                    let cj = model.cjunction(*w);
                    caps.push(cap(&mut adds, gi, si, cgs));
                    caps.push(cap(&mut adds, gi, di, cgs));
                    caps.push(cap(&mut adds, di, None, cj));
                    caps.push(cap(&mut adds, si, None, cj));
                    // Drain row (g, d, s columns), then source row.
                    let entries = [
                        di.zip(gi),
                        di.map(|r| (r, r)),
                        di.zip(si),
                        si.zip(gi),
                        si.zip(di),
                        si.map(|r| (r, r)),
                    ];
                    ([di, gi, si], entries)
                }
            };
            let mut slots = [NO_SLOT; 6];
            record(&mut adds, &entries, &mut slots);
            stamps.push(DeviceStamp { dev, nodes, slots });
        }
        branches.sort_by(|l, r| l.0.cmp(&r.0));

        // Freeze the pattern from the enumerated adds, then resolve each
        // slot array to the engine's storage.
        let (sparse, csr_slots) = SparsePattern::with_slots(n, &adds);
        let resolve = |slots: &mut [u32]| {
            for slot in slots.iter_mut().filter(|s| **s != NO_SLOT) {
                let k = *slot as usize;
                *slot = match solver {
                    SolverKind::Sparse => csr_slots[k],
                    SolverKind::Dense => {
                        let (r, c) = adds[k];
                        u32::try_from(r as usize * n + c as usize).expect("dense slots fit in u32")
                    }
                };
            }
        };
        resolve(&mut gmin_slots);
        for stamp in &mut stamps {
            resolve(&mut stamp.slots);
        }
        for cap in &mut caps {
            resolve(&mut cap.slots);
        }

        Self {
            solver,
            stamps,
            gmin_slots,
            caps,
            mtjs,
            mosfets,
            wave_devs,
            branches,
            n_nodes,
            n_unknowns: n,
            keys: ckt.devices().iter().map(plan_key).collect(),
            sparse,
        }
    }

    /// Whether the circuit no longer matches this plan: devices or
    /// unknowns were added, or an edit through [`Circuit::devices_mut`]
    /// changed a device's kind, terminals or companion capacitance.
    /// O(devices), run once per analysis.
    pub(crate) fn is_stale(&self, ckt: &Circuit) -> bool {
        self.n_unknowns != ckt.unknown_count()
            || self.keys.len() != ckt.devices().len()
            || self
                .keys
                .iter()
                .zip(ckt.devices())
                .any(|(key, d)| *key != plan_key(d))
    }
}

/// The batched pre-pass of assembly: evaluates every MOSFET at iterate
/// `x` into `ops`, in stamp-table order.
///
/// # Panics
///
/// Panics if `ops` is shorter than the plan's MOSFET count.
pub(super) fn evaluate_mosfets(
    plan: &StampPlan,
    ckt: &Circuit,
    x: &[f64],
    ops: &mut [MosfetOperatingPoint],
) {
    let devices = ckt.devices();
    let mut ops = ops.iter_mut();
    for stamp in &plan.stamps {
        if let Device::Mosfet { model, w, l, .. } = &devices[stamp.dev] {
            let [d, g, s] = stamp.nodes;
            let op = ops.next().expect("one operating point per MOSFET");
            *op = model.evaluate(vof(x, g), vof(x, d), vof(x, s), *w, *l);
        }
    }
}

/// Assembles the linearized MNA system at iterate `x` into `values` (the
/// storage the plan's slots address) and `z`.
///
/// `ops` must hold [`evaluate_mosfets`]'s output at the same `x`. The
/// stamping order — gmin diagonal, devices in insertion order,
/// capacitor companions — is the reference assembler's, so every slot's
/// floating-point sum is bit-identical to it.
#[allow(clippy::too_many_arguments)]
pub(super) fn assemble(
    plan: &StampPlan,
    ckt: &Circuit,
    x: &[f64],
    ctx: EvalCtx,
    gmin: f64,
    companions: Option<&Companions<'_>>,
    ops: &[MosfetOperatingPoint],
    values: &mut [f64],
    z: &mut [f64],
) {
    values.fill(0.0);
    z.fill(0.0);

    // gmin shunts keep otherwise-floating nodes weakly grounded.
    let gmin = gmin.max(GMIN_FLOOR);
    for &slot in &plan.gmin_slots {
        values[slot as usize] += gmin;
    }

    let devices = ckt.devices();
    let mut ops = ops.iter();
    for stamp in &plan.stamps {
        let [n0, n1, n2] = stamp.nodes;
        match &devices[stamp.dev] {
            Device::Resistor { ohms, .. } => {
                let g = 1.0 / ohms;
                scatter(values, &stamp.slots, [g, -g, g, -g]);
            }
            Device::Mtj { device, .. } => {
                let bias = vof(x, n0) - vof(x, n1);
                let r = device.resistance(units::Voltage::from_volts(bias));
                let g = 1.0 / r.ohms();
                scatter(values, &stamp.slots, [g, -g, g, -g]);
            }
            Device::VoltageSource { wave, .. } => {
                scatter(values, &stamp.slots, [1.0, 1.0, -1.0, -1.0]);
                let br = n2.expect("a voltage source has a branch row");
                z[br] = ctx.src_scale * wave.value_at(ctx.t);
            }
            Device::CurrentSource { wave, .. } => {
                let i = ctx.src_scale * wave.value_at(ctx.t);
                if let Some(p) = n0 {
                    z[p] -= i;
                }
                if let Some(m) = n1 {
                    z[m] += i;
                }
            }
            Device::Mosfet { .. } => {
                let op = ops.next().expect("one operating point per MOSFET");
                let (vd, vg, vs) = (vof(x, n0), vof(x, n1), vof(x, n2));
                // Channel current leaves the drain, enters the source:
                //   i_d = id0 + ∂i/∂vg·Δvg + ∂i/∂vd·Δvd + ∂i/∂vs·Δvs
                let ieq = op.id - op.di_dvg * vg - op.di_dvd * vd - op.di_dvs * vs;
                let terms = [
                    op.di_dvg, op.di_dvd, op.di_dvs, -op.di_dvg, -op.di_dvd, -op.di_dvs,
                ];
                scatter(values, &stamp.slots, terms);
                if let Some(d) = n0 {
                    z[d] -= ieq;
                }
                if let Some(s) = n2 {
                    z[s] += ieq;
                }
            }
            Device::Capacitor { .. } => unreachable!("stamp plan out of sync with circuit"),
        }
    }

    // Capacitor companions (transient only), the integrator hoisted out
    // of the loop.
    if let Some(c) = companions {
        let caps = plan.caps.iter().zip(c.states);
        match c.integrator {
            Integrator::BackwardEuler => {
                for (cap, state) in caps {
                    let geq = cap.farads / c.dt;
                    stamp_companion(cap, geq, geq * state.v_prev, values, z);
                }
            }
            Integrator::Trapezoidal => {
                for (cap, state) in caps {
                    let geq = 2.0 * cap.farads / c.dt;
                    stamp_companion(cap, geq, geq * state.v_prev + state.i_prev, values, z);
                }
            }
        }
    }
}

/// One capacitor's companion: conductance `geq` in parallel with the
/// history current `ieq`.
#[inline]
fn stamp_companion(cap: &CapDescriptor, geq: f64, ieq: f64, values: &mut [f64], z: &mut [f64]) {
    scatter(values, &cap.slots, [geq, -geq, geq, -geq]);
    if let Some(i) = cap.ia {
        z[i] += ieq;
    }
    if let Some(i) = cap.ib {
        z[i] -= ieq;
    }
}

#[cfg(test)]
mod tests {
    use mtj::{Mtj, MtjParams, MtjState, WritePolarity};
    use units::{Capacitance, Length, Resistance, Voltage};

    use super::super::reference::{self, CapInstance};
    use super::*;
    use crate::linalg::DenseMatrix;
    use crate::mosfet::Technology;
    use crate::source::SourceWaveform;

    /// Every device kind the assembler stamps: R, C, floating and
    /// grounded V sources, an I source, NMOS/PMOS with grounded
    /// terminals, a diode-connected device and one whose drain sits
    /// below its source, and two MTJs (one grounded).
    fn mixed_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let [vdd, vin, a, b, out, c, ibias] =
            ["vdd", "in", "a", "b", "out", "c", "ibias"].map(|n| ckt.node(n));
        let gnd = Circuit::GROUND;
        let v = Voltage::from_volts;
        let ps = units::Time::from_pico_seconds;
        let tech = Technology::tsmc40lp();
        let w = Length::from_nano_meters(200.0);
        let kohm = Resistance::from_kilo_ohms;
        let mtj = |state| Mtj::new(MtjParams::date2018(), state, WritePolarity::default());
        let pulse = SourceWaveform::pulse(v(0.0), v(1.1), ps(10.0), ps(5.0), ps(5.0), ps(50.0));
        ckt.add_voltage_source("VDD", vdd, gnd, SourceWaveform::dc(v(1.1)))
            .expect("VDD");
        ckt.add_voltage_source("VIN", vin, gnd, pulse).expect("VIN");
        ckt.add_resistor("R1", vdd, a, kohm(2.0)).expect("R1");
        ckt.add_voltage_source("VAB", a, b, SourceWaveform::dc(v(0.2)))
            .expect("VAB");
        ckt.add_capacitor("C1", a, out, Capacitance::from_femto_farads(3.0))
            .expect("C1");
        ckt.add_pmos("MP", out, vin, vdd, &tech, w).expect("MP");
        ckt.add_nmos("MN", out, vin, gnd, &tech, w).expect("MN");
        ckt.add_nmos("MD", c, c, b, &tech, w).expect("MD");
        ckt.add_nmos("MR", gnd, a, c, &tech, w).expect("MR");
        ckt.add_pmos("MG", c, gnd, vdd, &tech, w).expect("MG");
        ckt.add_mtj("X1", c, gnd, mtj(MtjState::Parallel))
            .expect("X1");
        ckt.add_mtj("X2", out, b, mtj(MtjState::AntiParallel))
            .expect("X2");
        ckt.add_capacitor("C2", c, gnd, Capacitance::from_femto_farads(1.0))
            .expect("C2");
        ckt.add_current_source("I1", ibias, gnd, SourceWaveform::Dc(2e-6))
            .expect("I1");
        ckt.add_resistor("R2", ibias, gnd, kohm(10.0)).expect("R2");
        ckt
    }

    /// A small deterministic generator (SplitMix64) in `[lo, hi)`.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self, lo: f64, hi: f64) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            lo + (hi - lo) * (z >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The plan's assembly at `x`, expanded to a dense row-major matrix.
    fn assemble_dense(
        plan: &StampPlan,
        ckt: &Circuit,
        x: &[f64],
        ctx: EvalCtx,
        gmin: f64,
        companions: Option<&Companions<'_>>,
    ) -> (Vec<f64>, Vec<f64>) {
        let n = plan.n_unknowns;
        let mut ops = vec![MosfetOperatingPoint::default(); plan.mosfets];
        evaluate_mosfets(plan, ckt, x, &mut ops);
        let mut z = vec![f64::NAN; n];
        let len = match plan.solver {
            SolverKind::Sparse => plan.sparse.nnz(),
            SolverKind::Dense => n * n,
        };
        let mut values = vec![f64::NAN; len];
        assemble(
            plan,
            ckt,
            x,
            ctx,
            gmin,
            companions,
            &ops,
            &mut values,
            &mut z,
        );
        let dense = match plan.solver {
            SolverKind::Dense => values,
            SolverKind::Sparse => (0..n * n)
                .map(|k| plan.sparse.slot(k / n, k % n).map_or(0.0, |s| values[s]))
                .collect(),
        };
        (dense, z)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Both engines' slot-resolved assembly equals the reference
    /// assembler's matrix and RHS bit for bit, at random iterates, for
    /// op (no companions) and for transient companions under each
    /// integrator.
    #[test]
    fn slot_resolved_assembly_matches_the_reference_bit_for_bit() {
        let ckt = mixed_circuit();
        let n = ckt.unknown_count();
        let sparse = StampPlan::build(&ckt, SolverKind::Sparse);
        let dense = StampPlan::build(&ckt, SolverKind::Dense);
        let mut draws = Draws(7);
        for round in 0..40 {
            let mut x: Vec<f64> = (0..n).map(|_| draws.next(-0.4, 1.5)).collect();
            // Branch currents are small; node voltages span both rails.
            for xi in &mut x[sparse.n_nodes..] {
                *xi *= 1e-4;
            }
            let t = draws.next(0.0, 100e-12);
            let gmin = [1e-2, 1e-8, GMIN_FLOOR][round % 3];
            let dt = draws.next(1e-13, 1e-11);
            let mut states = vec![CapState::default(); sparse.caps.len()];
            for s in &mut states {
                s.v_prev = draws.next(-1.2, 1.2);
                s.i_prev = draws.next(-1e-5, 1e-5);
            }
            let mut ref_caps = reference::flatten_caps(&ckt);
            assert_eq!(ref_caps.len(), states.len());
            for (cap, s) in ref_caps.iter_mut().zip(&states) {
                cap.v_prev = s.v_prev;
                cap.i_prev = s.i_prev;
            }
            for integrator in [
                None,
                Some(Integrator::BackwardEuler),
                Some(Integrator::Trapezoidal),
            ] {
                let companions = integrator.map(|integrator| Companions {
                    states: &states,
                    integrator,
                    dt,
                });
                let ref_companion: Option<(Vec<CapInstance>, Integrator, f64)> =
                    integrator.map(|i| (ref_caps.clone(), i, dt));
                let mut a = DenseMatrix::zeros(n);
                let mut z = vec![0.0; n];
                reference::assemble(&ckt, &x, t, gmin, ref_companion.as_ref(), &mut a, &mut z);
                let ctx = EvalCtx { t, src_scale: 1.0 };
                for plan in [&sparse, &dense] {
                    let (got_a, got_z) =
                        assemble_dense(plan, &ckt, &x, ctx, gmin, companions.as_ref());
                    let what = format!("{:?}, {integrator:?}, round {round}", plan.solver);
                    assert_eq!(bits(&got_a), bits(a.data()), "matrix differs: {what}");
                    assert_eq!(bits(&got_z), bits(&z), "rhs differs: {what}");
                }
            }
        }
    }

    /// The source-stepping scale multiplies the independent sources'
    /// RHS entries and nothing else.
    #[test]
    fn src_scale_scales_only_source_entries() {
        let ckt = mixed_circuit();
        let n = ckt.unknown_count();
        let mut source_rows = Vec::new();
        for d in ckt.devices() {
            match d {
                Device::VoltageSource { branch, .. } => source_rows.push(ckt.branch_index(*branch)),
                Device::CurrentSource { pos, .. } => {
                    source_rows.extend(ckt.voltage_index(*pos));
                }
                _ => {}
            }
        }
        let x: Vec<f64> = (0..n).map(|i| 0.05 * i as f64).collect();
        let t = 20e-12;
        for solver in [SolverKind::Sparse, SolverKind::Dense] {
            let plan = StampPlan::build(&ckt, solver);
            let full = EvalCtx { t, src_scale: 1.0 };
            let scaled = EvalCtx { t, src_scale: 0.25 };
            let (a1, z1) = assemble_dense(&plan, &ckt, &x, full, GMIN_FLOOR, None);
            let (a2, z2) = assemble_dense(&plan, &ckt, &x, scaled, GMIN_FLOOR, None);
            assert_eq!(
                bits(&a1),
                bits(&a2),
                "{solver:?}: the matrix must not scale"
            );
            for row in 0..n {
                if source_rows.contains(&row) {
                    assert_ne!(z1[row], 0.0, "{solver:?}: source row {row} is live");
                    assert_eq!(z2[row], 0.25 * z1[row], "{solver:?}: source row {row}");
                } else {
                    assert_eq!(
                        z2[row].to_bits(),
                        z1[row].to_bits(),
                        "{solver:?}: row {row}"
                    );
                }
            }
        }
    }
}
