//! Per-source, per-window energy breakdown of the proposed latch's
//! restore sequence — where every femtojoule of Table II's read energy
//! goes (pre-charge, the two evaluations, the GND dump, control
//! drivers), next to the standard latch's figure.
//!
//! ```text
//! cargo run --release -p cells --example energy_breakdown
//! ```

use cells::{LatchConfig, NvWord, WordParams};
use units::Time;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = LatchConfig::default();

    let std_latch = NvWord::new(WordParams::new(1), cfg.clone());
    let r = std_latch.simulate_restore(&[true])?;
    println!(
        "standard: energy {} delay {} (x2 = {})",
        r.energy,
        r.read_delay,
        r.energy * 2.0
    );

    let (sres, sctl) = std_latch.restore_traces(&[true])?;
    let svdd = sres.supply_energy("VDD", Time::ZERO, sctl.total())?;
    println!("standard VDD-only: {} (x2 = {})", svdd, svdd * 2.0);

    let latch = NvWord::new(WordParams::new(2), cfg.clone());
    let out = latch.simulate_restore(&[true, false])?;
    println!(
        "proposed: energy {} delay {} (d0 {}, d1 {})",
        out.energy, out.read_delay, out.sense_delays[0], out.sense_delays[1]
    );

    let (result, controls) = latch.restore_traces(&[true, false])?;
    let total = controls.total();
    let pvdd = result.supply_energy("VDD", Time::ZERO, total)?;
    println!("proposed VDD-only: {pvdd}");
    let [eval0, eval1] = *controls.evals() else {
        unreachable!("the 2-bit restore has two evaluations")
    };
    let windows = [
        ("lead-in ", Time::ZERO, eval0.start),
        ("eval0   ", eval0.start, eval0.end),
        ("pc-gnd  ", eval0.end, eval1.start),
        ("eval1   ", eval1.start, eval1.end),
        ("tail    ", eval1.end, total),
    ];
    println!("\nper-window, per-source energy [fJ]:");
    let sources: Vec<String> = result.branch_names().map(str::to_owned).collect();
    print!("{:<9}", "window");
    for s in &sources {
        print!("{s:>8}");
    }
    println!();
    for (label, a, b) in windows {
        print!("{label:<9}");
        for s in &sources {
            let e = result.supply_energy(s, a, b)?;
            print!("{:>8.2}", e.femto_joules());
        }
        println!();
    }

    // Supply current profile.
    println!("\nVDD branch current [µA] through time:");
    let ivdd = result.branch("VDD")?;
    for k in 0..30 {
        let t = total.seconds() * f64::from(k) / 30.0;
        print!("{:7.1}", -ivdd.value_at(t) * 1e6);
    }
    println!();
    println!("(samples every {:.0} ps)", total.seconds() / 30.0 * 1e12);

    // Key node voltages at window boundaries.
    println!("\nnode levels:");
    for node in ["mtj_read", "mtj_read_b", "tl", "tr", "nl", "nr", "mt", "m"] {
        let t = result.node(node)?;
        println!(
            "{node:>10}: eval0_end {:.3}  eval1_start {:.3}  eval1_end {:.3}  final {:.3}",
            t.value_at(eval0.end.seconds()),
            t.value_at(eval1.start.seconds()),
            t.value_at(eval1.end.seconds()),
            t.last_value()
        );
    }
    Ok(())
}
