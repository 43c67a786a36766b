//! Quickstart: one complete store → power-down → restore cycle of the
//! proposed 2-bit NV latch, at both the behavioral and the circuit
//! level.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use spintronic_ff::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Behavioral level: the PD protocol --------------------------
    let mut pair = MultiBitNvFlipFlop::new();
    pair.capture(0, true)?;
    pair.capture(1, false)?;
    println!("captured bits: [{:?}, {:?}]", pair.q(0), pair.q(1));

    pair.power_down()?;
    println!(
        "powered down: outputs gone, shadow holds {:?}",
        pair.shadow_bits()
    );

    pair.power_up()?;
    println!(
        "restored (order {:?}): [{:?}, {:?}]\n",
        pair.last_restore_order(),
        pair.q(0),
        pair.q(1)
    );

    // ---- Circuit level: the same cycle through SPICE ----------------
    let latch = NvWord::new(WordParams::new(2), LatchConfig::default());

    println!("store phase (writing [1, 0] over [0, 1])...");
    let store = latch.simulate_store(&[true, false], &[false, true])?;
    println!(
        "  stored {:?} — {} MTJ reversals, latency {}, energy {}",
        store.stored, store.switch_count, store.latency, store.energy
    );

    println!("restore phase (wake-up from 0 V)...");
    let restore = latch.simulate_restore(&[true, false])?;
    println!(
        "  read back {:?} — sense delays {} + {}, supply energy {}",
        restore.bits, restore.sense_delays[0], restore.sense_delays[1], restore.supply_energy
    );

    // ---- The headline comparison ------------------------------------
    let standard = NvWord::new(WordParams::new(1), LatchConfig::default());
    let single = standard.simulate_restore(&[true])?;
    println!("\nversus two standard 1-bit cells:");
    println!(
        "  2× standard: energy {}, delay {} (parallel)",
        single.supply_energy * 2.0,
        single.read_delay
    );
    println!(
        "  proposed   : energy {}, delay {} (sequential)",
        restore.supply_energy, restore.read_delay
    );
    println!(
        "  energy saving: {:.1} %, delay ratio: {:.2}×",
        (1.0 - restore.supply_energy / (single.supply_energy * 2.0)) * 100.0,
        restore.read_delay / single.read_delay
    );
    Ok(())
}
