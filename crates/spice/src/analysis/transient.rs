//! Transient analysis loop over a prepared plan and workspace.
//!
//! Two step policies share one loop (see
//! [`StepControl`](super::StepControl)):
//!
//! * **Fixed** — numerically identical to the original engine (see
//!   [`super::reference`]): uniform nominal steps, breakpoint
//!   alignment, Newton step halving and the post-step MTJ advance.
//! * **Adaptive** (default) — the same loop plus a local-truncation-
//!   error controller. Each converged step is compared against the
//!   linear divided-difference predictor extrapolated from the two
//!   previous accepted solutions; the worst per-unknown error ratio
//!   against `abstol + reltol·|x|` accepts or rejects the step and
//!   chooses the next `dt`, growing up to `dt_max` on plateaus and
//!   shrinking into edges. Breakpoints reset the predictor history
//!   (the waveform derivative is discontinuous across them) and drop
//!   `dt` back to nominal so control edges are always resolved.
//!
//! In both modes the capacitor histories live in the workspace (no
//! per-step clone of the companion list), the MTJ terminal indices come
//! pre-resolved from the plan, and every Newton solve runs in reused
//! buffers.

use units::{Current, Time};

use crate::circuit::Circuit;
use crate::device::Device;
use crate::error::SpiceError;
use crate::result::{MtjEvent, TransientResult};

use super::assembly::{vof, Companions, StampPlan};
use super::newton::{newton, solve_op_from_zero};
use super::session::Workspace;
use super::{StartCondition, StepControl, TransientOptions, GMIN_FLOOR};

/// Relative part of the breakpoint guard: a breakpoint closer to `t`
/// than `t·BP_REL_EPS` is indistinguishable from `t` at double
/// precision scale and must not spawn a sliver step.
const BP_REL_EPS: f64 = 1e-12;
/// Absolute floor of the breakpoint guard (keeps `t = 0` working).
const BP_ABS_EPS: f64 = 1e-18;

/// Smallest distance (relative to `t`) a breakpoint must keep from the
/// current time to be worth clipping a step to. The historical guard
/// was the absolute `BP_ABS_EPS` alone, which at large `t` admits
/// sliver steps of a few ulps — each one burns a Newton solve and a
/// divided-by-`dt` companion update at `dt ≈ 1e-18`.
fn breakpoint_eps(t: f64) -> f64 {
    (t.abs() * BP_REL_EPS).max(BP_ABS_EPS)
}

/// Safety factor on the LTE-derived step proposal, per SPICE practice:
/// aim below the tolerance so the next step is unlikely to reject.
const LTE_SAFETY: f64 = 0.9;
/// SPICE's `trtol` relaxation on the divided-difference estimate. The
/// estimate systematically over-states the true truncation error (it
/// bounds the third derivative by a second difference of already-damped
/// corrector values), and every production SPICE divides it out;
/// 7 is the Berkeley default. Public because differential test
/// harnesses derive their pairwise agreement budgets from it: an
/// accepted step may carry estimated LTE up to `trtol · tol`.
pub const LTE_TRTOL: f64 = 7.0;
/// Largest per-step growth of `dt` — doubling keeps the predictor
/// history relevant and the controller stable.
const LTE_GROWTH_MAX: f64 = 2.0;
/// Smallest shrink applied on an LTE rejection.
const LTE_SHRINK_MIN: f64 = 0.1;
/// When `dt_max` is not given: `stop / DEFAULT_DTMAX_DIV`, so even an
/// all-plateau waveform keeps at least this many samples.
const DEFAULT_DTMAX_DIV: f64 = 50.0;

/// The adaptive controller's per-step state: the last three accepted
/// solutions and the step sizes between them.
struct LteState<'w> {
    /// Accepted points available (0..=3); the LTE test needs 2, the
    /// quadratic (trapezoidal-order) predictor 3.
    depth: usize,
    /// Step from `x_prev2` to `x_prev`.
    dt_prev: f64,
    /// Step from `x_prev3` to `x_prev2`.
    dt_prev2: f64,
    x_prev: &'w mut Vec<f64>,
    x_prev2: &'w mut Vec<f64>,
    x_prev3: &'w mut Vec<f64>,
}

impl LteState<'_> {
    /// Restart the predictor from the single point `x` — used at `t = 0`
    /// and after every breakpoint (the source derivative is
    /// discontinuous across one, so extrapolating over it is
    /// meaningless).
    fn reset_to(&mut self, x: &[f64]) {
        self.depth = 1;
        self.x_prev.clear();
        self.x_prev.extend_from_slice(x);
    }

    /// Record the accepted solution `x` after a step of `dt`.
    fn push(&mut self, x: &[f64], dt: f64) {
        std::mem::swap(self.x_prev2, self.x_prev3);
        std::mem::swap(self.x_prev, self.x_prev2);
        self.x_prev.clear();
        self.x_prev.extend_from_slice(x);
        self.dt_prev2 = self.dt_prev;
        self.dt_prev = dt;
        self.depth = (self.depth + 1).min(3);
    }

    /// Worst per-node ratio of estimated LTE to tolerance for the
    /// converged solution `x` after a step of `dt`; `None` while the
    /// history is too shallow to extrapolate.
    ///
    /// The estimate is the SPICE corrector-minus-predictor device, with
    /// the predictor order matched to the corrector order (the Milne
    /// principle): backward Euler extrapolates linearly through the two
    /// previous points, so the gap measures `h²·x''` — its error scale —
    /// and trapezoidal extrapolates quadratically through three, so the
    /// gap measures `h³·x'''`. (A linear predictor under trap would pin
    /// the estimate to the `x''` of any settling exponential and forbid
    /// growth on plateaus the second-order corrector integrates almost
    /// exactly.) The divided-difference coefficients below scale each
    /// gap to the corrector's local truncation error, relaxed by
    /// [`LTE_TRTOL`]. Until the trap history is three deep the linear
    /// predictor with the conservative `dt/(3·(dt+dt_prev))` coefficient
    /// fills in.
    ///
    /// Only the first `n_nodes` unknowns — the node voltages — are
    /// tested. MNA branch currents are algebraic variables, not
    /// integrated states: they jump legitimately at source corners, and
    /// holding a µA–mA supply current to the ampere-scale `abstol`
    /// would drive the controller far below any useful step.
    fn error_ratio(
        &self,
        x: &[f64],
        n_nodes: usize,
        dt: f64,
        options: &TransientOptions,
    ) -> Option<f64> {
        if self.depth < 2 {
            return None;
        }
        let h1 = self.dt_prev;
        let h2 = self.dt_prev2;
        let quadratic = options.integrator == super::Integrator::Trapezoidal && self.depth >= 3;
        let coeff = if quadratic {
            // gap = dt(dt+h1)(dt+h1+h2)/6 · x''' vs LTE = dt³/12 · x'''.
            dt * dt / (2.0 * (dt + h1) * (dt + h1 + h2))
        } else {
            match options.integrator {
                // gap = dt(dt+h1)/2 · x'' vs LTE = dt²/2 · x''.
                super::Integrator::BackwardEuler => dt / (dt + h1),
                super::Integrator::Trapezoidal => dt / (3.0 * (dt + h1)),
            }
        } / LTE_TRTOL;
        // Quadratic Newton-form term: p(t+dt) = x₀ + dt·f[0,1] +
        // dt(dt+h1)·f[0,1,2].
        let curv = dt * (dt + h1) / (h1 + h2);
        let mut worst = 0.0_f64;
        for (i, &xi) in x.iter().enumerate().take(n_nodes) {
            let d01 = (self.x_prev[i] - self.x_prev2[i]) / h1;
            let mut predicted = self.x_prev[i] + d01 * dt;
            if quadratic {
                let d12 = (self.x_prev2[i] - self.x_prev3[i]) / h2;
                predicted += curv * (d01 - d12);
            }
            let err = (xi - predicted).abs() * coeff;
            let tol = options.abstol + options.reltol * xi.abs().max(self.x_prev[i].abs());
            worst = worst.max(err / tol);
        }
        Some(worst)
    }
}

/// Runs a transient from 0 to `stop` with nominal step `step` against a
/// prepared plan and workspace (see
/// [`transient_with_options`](super::transient_with_options) for the
/// semantics).
pub(super) fn run(
    plan: &StampPlan,
    ckt: &mut Circuit,
    ws: &mut Workspace,
    stop: Time,
    step: Time,
    options: TransientOptions,
) -> Result<TransientResult, SpiceError> {
    let _span = telemetry::span("spice.transient");
    // Hoisted enabled checks for the per-step instrumentation below.
    let tel = telemetry::enabled();
    let fl = telemetry::flight::active();
    let stop_s = stop.seconds();
    let dt_nominal = step.seconds();
    if stop_s <= 0.0 || dt_nominal <= 0.0 || stop_s.is_nan() || dt_nominal.is_nan() {
        return Err(SpiceError::InvalidAnalysis {
            reason: format!("stop ({stop}) and step ({step}) must be positive"),
        });
    }
    if dt_nominal > stop_s {
        return Err(SpiceError::InvalidAnalysis {
            reason: format!("step ({step}) exceeds the analysis window ({stop})"),
        });
    }
    let adaptive = options.step_control == StepControl::Adaptive;
    if adaptive && !(options.reltol > 0.0 && options.abstol > 0.0) {
        return Err(SpiceError::InvalidAnalysis {
            reason: format!(
                "adaptive stepping needs positive tolerances (reltol = {}, abstol = {})",
                options.reltol, options.abstol
            ),
        });
    }
    let dt_max = match options.dt_max {
        Some(m) => m.seconds(),
        None => (stop_s / DEFAULT_DTMAX_DIV).max(dt_nominal),
    };
    // Written to also reject a NaN `dt_max` (every comparison fails).
    if adaptive
        && !matches!(
            dt_max.partial_cmp(&dt_nominal),
            Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
        )
    {
        return Err(SpiceError::InvalidAnalysis {
            reason: format!("dt_max ({dt_max:e} s) must be at least the nominal step ({step})"),
        });
    }
    // Newton non-convergence may halve far below the nominal step for
    // robustness (`max_step_halvings` bounds that ladder); the LTE
    // controller never does. The nominal step is the user's resolution
    // floor — the controller only *coarsens* beyond it where the LTE
    // test certifies the plateau, and falls back to the nominal grid
    // (the fixed engine's accuracy) at edges. Refining below the
    // requested grid is the user's call via the nominal step, not the
    // controller's.
    let lte_floor = dt_nominal;

    let stats_before = ws.stats;
    let (mut bufs, scratch) = ws.split();
    let cap_states = scratch.cap_states;

    // Initial state.
    match options.start {
        StartCondition::OperatingPoint => solve_op_from_zero(plan, ckt, &mut bufs, 0.0)?,
        StartCondition::Zero => bufs.zero_x(plan.n_unknowns),
    }

    // Reset capacitor histories (explicit caps + MOSFET parasitics were
    // flattened into the plan) to the initial node voltages.
    cap_states.clear();
    cap_states.resize(plan.caps.len(), super::assembly::CapState::default());
    for (cap, state) in plan.caps.iter().zip(cap_states.iter_mut()) {
        state.v_prev = vof(bufs.x, cap.ia) - vof(bufs.x, cap.ib);
    }

    let mut lte = LteState {
        depth: 0,
        dt_prev: dt_nominal,
        dt_prev2: dt_nominal,
        x_prev: scratch.x_prev,
        x_prev2: scratch.x_prev2,
        x_prev3: scratch.x_prev3,
    };
    lte.reset_to(bufs.x);

    // Result storage.
    let mut recorder = TransientResult::recorder(ckt);
    recorder.push(0.0, bufs.x, ckt);
    let mut events: Vec<MtjEvent> = Vec::new();

    let mut t = 0.0_f64;
    // The controller's proposal for the next step (always `dt_nominal`
    // under fixed stepping).
    let mut dt_next = dt_nominal;
    while t < stop_s {
        // Candidate step: proposed, clipped to breakpoints and the window.
        let remaining = stop_s - t;
        let mut dt = dt_next.min(remaining);
        // Distance to the breakpoint this step was clipped to, if any —
        // consumed after acceptance to restart the predictor history.
        let mut bp_dt = None;
        if let Some(bp) = next_breakpoint(plan, ckt, t) {
            if bp > t + breakpoint_eps(t) && bp < t + dt {
                dt = bp - t;
                bp_dt = Some(dt);
            }
        }

        // Solve, halving on non-convergence and shrinking on excessive
        // truncation error.
        let mut halvings = 0;
        let dt_used = loop {
            bufs.save_x();
            let companions = Companions {
                states: cap_states,
                integrator: options.integrator,
                dt,
            };
            match newton(
                plan,
                ckt,
                &mut bufs,
                "tran",
                t + dt,
                GMIN_FLOOR,
                Some(&companions),
                options.max_newton_iterations,
                1.0,
            ) {
                Ok(()) => {
                    if adaptive {
                        if let Some(ratio) = lte.error_ratio(bufs.x, plan.n_nodes, dt, &options) {
                            if tel {
                                telemetry::histogram("spice.lte_ratio", ratio);
                            }
                            if ratio > 1.0 && dt > lte_floor {
                                // Converged but too inaccurate: reject and
                                // retry at the LTE-suggested size (floored
                                // at the nominal grid so the loop always
                                // terminates).
                                bufs.stats.rejected_steps += 1;
                                bufs.stats.lte_rejections += 1;
                                if fl {
                                    telemetry::flight::record_always(
                                        telemetry::flight::EventKind::LteReject,
                                        t + dt,
                                        ratio,
                                    );
                                }
                                bufs.restore_x();
                                dt = (dt * shrink_factor(ratio, options.integrator)).max(lte_floor);
                                continue;
                            }
                            dt_next = grow_dt(dt, ratio, options.integrator);
                        } else {
                            // Too little history to judge: hold the size.
                            dt_next = dt;
                        }
                    }
                    bufs.stats.accepted_steps += 1;
                    break dt;
                }
                Err(e) => {
                    bufs.stats.rejected_steps += 1;
                    halvings += 1;
                    if halvings > options.max_step_halvings {
                        return Err(e);
                    }
                    bufs.stats.step_halvings += 1;
                    if fl {
                        telemetry::flight::record_always(
                            telemetry::flight::EventKind::StepHalve,
                            t + dt,
                            dt,
                        );
                    }
                    bufs.restore_x();
                    dt *= 0.5;
                }
            }
        };
        // Snap the final step exactly onto the requested stop time:
        // accumulating `t += dt_used` drifts by an ulp per step, which
        // used to leave the last sample at `stop − ulp` (or spawn a
        // sliver-sized extra step past it). A step that consumed the
        // whole remaining window *is* the final step by construction —
        // `dt` was clipped to `remaining` above and only shrinks.
        t = if dt_used >= remaining {
            stop_s
        } else {
            t + dt_used
        };
        if tel {
            telemetry::histogram("spice.dt_s", dt_used);
        }
        if fl {
            telemetry::flight::record_always(telemetry::flight::EventKind::StepAccept, t, dt_used);
        }

        if adaptive {
            if bp_dt.is_some_and(|clip| dt_used >= clip) {
                // Landed on a source breakpoint: the waveform derivative
                // jumps here, so extrapolation across it is meaningless
                // and the upcoming edge needs nominal-resolution steps.
                lte.reset_to(bufs.x);
                dt_next = dt_nominal;
            } else {
                lte.push(bufs.x, dt_used);
            }
            dt_next = dt_next.clamp(lte_floor, dt_max);
        }

        // Update capacitor history.
        for (cap, state) in plan.caps.iter().zip(cap_states.iter_mut()) {
            let v_now = vof(bufs.x, cap.ia) - vof(bufs.x, cap.ib);
            let i_now = match options.integrator {
                super::Integrator::BackwardEuler => cap.farads / dt_used * (v_now - state.v_prev),
                super::Integrator::Trapezoidal => {
                    2.0 * cap.farads / dt_used * (v_now - state.v_prev) - state.i_prev
                }
            };
            state.v_prev = v_now;
            state.i_prev = i_now;
        }

        // Advance MTJ magnetisation from the solved branch currents; the
        // terminal indices were resolved once at plan build.
        for mtj in &plan.mtjs {
            let bias = vof(bufs.x, mtj.ia) - vof(bufs.x, mtj.ib);
            if let Device::Mtj { name, device, .. } = &mut ckt.devices_mut()[mtj.dev] {
                let r = device.resistance(units::Voltage::from_volts(bias));
                let i = Current::from_amps(bias / r.ohms());
                if device.advance(i, Time::from_seconds(dt_used)) {
                    events.push(MtjEvent {
                        time: Time::from_seconds(t),
                        device: name.clone(),
                        state: device.state(),
                    });
                }
            }
        }

        recorder.push(t, bufs.x, ckt);
    }

    // The snap above guarantees the loop exits exactly at `stop_s`, so
    // the recorder's final sample sits on the requested stop time.
    debug_assert!(
        t == stop_s,
        "transient ended at {t:?}, expected exactly {stop_s:?}"
    );

    Ok(recorder.finish(events, *bufs.stats - stats_before))
}

/// Local error order of the integrator (`LTE ∝ dt^order`), which sets
/// the exponent of the step-size update.
fn lte_order(integrator: super::Integrator) -> f64 {
    match integrator {
        super::Integrator::BackwardEuler => 2.0,
        super::Integrator::Trapezoidal => 3.0,
    }
}

/// Step multiplier after an LTE rejection at error ratio `ratio > 1`.
fn shrink_factor(ratio: f64, integrator: super::Integrator) -> f64 {
    (LTE_SAFETY / ratio.powf(1.0 / lte_order(integrator))).clamp(LTE_SHRINK_MIN, 0.5)
}

/// Next-step proposal after accepting a step of `dt` at error ratio
/// `ratio ≤ 1`. A ratio of exactly zero (bit-flat plateau) maps to the
/// growth cap through the `inf.min(GROWTH_MAX)` path.
fn grow_dt(dt: f64, ratio: f64, integrator: super::Integrator) -> f64 {
    let factor = (LTE_SAFETY / ratio.powf(1.0 / lte_order(integrator))).min(LTE_GROWTH_MAX);
    // Never propose *shrinking* after an accepted step — the edge case
    // `ratio` slightly below 1 would otherwise jitter the size down.
    dt * factor.max(1.0)
}

/// Earliest source breakpoint strictly after `t`, across all sources.
fn next_breakpoint(plan: &StampPlan, ckt: &Circuit, t: f64) -> Option<f64> {
    plan.wave_devs
        .iter()
        .filter_map(|&dev| match &ckt.devices()[dev] {
            Device::VoltageSource { wave, .. } | Device::CurrentSource { wave, .. } => {
                wave.next_breakpoint(t)
            }
            _ => None,
        })
        .min_by(|a, b| a.partial_cmp(b).expect("breakpoints are finite"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakpoint_guard_scales_with_t() {
        // At small t the historical absolute floor is preserved…
        assert_eq!(breakpoint_eps(0.0), BP_ABS_EPS);
        assert_eq!(breakpoint_eps(1e-9), BP_ABS_EPS);
        // …while at large t the guard tracks the ulp scale instead of
        // admitting 1e-18-sized sliver steps.
        assert!(breakpoint_eps(1.0) >= 1e-12);
        assert!(breakpoint_eps(1e6) >= 1e-6);
    }

    #[test]
    fn flat_plateau_grows_and_edge_shrinks() {
        let opts = TransientOptions::adaptive();
        // Perfectly predicted solution → ratio 0 → growth capped at 2×.
        assert_eq!(grow_dt(1e-12, 0.0, opts.integrator), 2e-12);
        // Error right at tolerance → hold (never shrink on accept).
        assert_eq!(grow_dt(1e-12, 1.0, opts.integrator), 1e-12);
        // Large violation → strong shrink, clamped at the minimum.
        assert_eq!(shrink_factor(1e6, opts.integrator), LTE_SHRINK_MIN);
        // Mild violation → gentle shrink below the ceiling.
        let f = shrink_factor(2.0, opts.integrator);
        assert!(f > LTE_SHRINK_MIN && f <= 0.5 + 1e-12, "factor {f}");
    }
}
