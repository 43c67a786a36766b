//! Temperature sweep of the NV flip-flop figures of merit — retention,
//! read margin, write speed and restore correctness from −40 °C to
//! 125 °C (the paper evaluates at a fixed 27 °C; this explores the
//! envelope a product would need).
//!
//! ```text
//! cargo run --release --example thermal_sweep
//! ```

use cells::{margin, LatchConfig, NvWord, WordParams};
use mtj::{wer, MtjParams, SwitchingModel, ThermalModel};
use units::Current;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nominal = MtjParams::date2018();
    let thermal = ThermalModel::default();
    let base = LatchConfig::default();

    println!(
        "{:>8} | {:>7} {:>9} {:>13} | {:>8} {:>9} | {:>8}",
        "temp", "TMR", "Ic", "retention", "margin", "write τ", "restore"
    );
    println!("{}", "-".repeat(78));

    for celsius in [-40.0, 0.0, 27.0, 60.0, 85.0, 105.0, 125.0] {
        let t = units::Temperature::from_celsius(celsius);
        let params = thermal.at_temperature(&nominal, t);

        let mut config = base.clone();
        config.mtj = params.clone();
        let latch = NvWord::new(WordParams::new(2), config);

        let margins = margin::read_margins(&latch, [true, false])?;
        let restored = latch
            .simulate_restore(&[true, false])
            .map(|r| r.bits == [true, false])
            .unwrap_or(false);
        let tau = SwitchingModel::new(&params).mean_switching_time(Current::from_micro_amps(63.0));

        println!(
            "{:>8} | {:>6.0}% {:>9} {:>13} | {:>7.1}% {:>9} | {:>8}",
            t.to_string(),
            params.tmr_zero_bias() * 100.0,
            params.critical_current().to_string(),
            params.retention_time().to_string(),
            margins.worst() * 100.0,
            tau.to_string(),
            if restored { "ok" } else { "FAILS" },
        );
    }

    // The write-pulse insurance picture across the same range.
    println!("\nstore pulse needed for WER = 1e-9 at 63 µA drive:");
    for celsius in [-40.0, 27.0, 125.0] {
        let t = units::Temperature::from_celsius(celsius);
        let params = thermal.at_temperature(&nominal, t);
        let model = SwitchingModel::new(&params);
        let pulse = wer::pulse_for_wer(&model, Current::from_micro_amps(63.0), 1e-9);
        println!("  {:>8}: {}", t.to_string(), pulse);
    }
    println!(
        "\ncold is the write-limited corner (higher Ic), hot the retention-limited one —\n\
         the standard NV-MRAM trade the paper's Table I parameters sit in the middle of."
    );
    Ok(())
}
