//! Regenerates **Fig. 8** — the layout of the proposed 2-bit
//! non-volatile latch (and the 1-bit baseline for comparison), written
//! as SVG files into `target/figures/`.

use layout::{cells, svg, DesignRules};
use nvff::architecture::{standard_pair_area, word_area, word_layout};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rules = DesignRules::n40();
    let out_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out_dir)?;

    println!("FIG 8: NV COMPONENT LAYOUTS (12-track cells, up to M2)\n");
    for (layout, paper_area) in [
        (word_layout(2, &rules), 3.696),
        (word_layout(1, &rules), 5.635 / 2.0),
    ] {
        let violations = layout.check();
        assert!(violations.is_empty(), "DRC: {violations:?}");
        let path = out_dir.join(format!("fig8_{}.svg", layout.name().to_lowercase()));
        std::fs::write(&path, svg::render(&layout, 220.0))?;
        println!(
            "{:<10} {:>6.3} × {:>5.3} µm = {:>6.3} µm² (paper {paper_area:.3}), \
             {} MTJ pads, P/N columns {}/{} → {}",
            layout.name(),
            layout.width().micro_meters(),
            layout.height().micro_meters(),
            layout.area().square_micro_meters(),
            layout.mtj_count(),
            layout.p_plan().columns,
            layout.n_plan().columns,
            path.display(),
        );
    }

    let pair = standard_pair_area(&rules);
    let prop = word_area(2, &rules);
    println!(
        "\ntwo 1-bit components (with spacing): {:.3} µm² (paper 5.635)",
        pair.square_micro_meters()
    );
    println!(
        "cell-level area saving: {:.1} % (paper 34.4 %)",
        (1.0 - prop / pair) * 100.0
    );
    println!(
        "merge threshold (2× 1-bit width): {} (paper 3.35 µm)",
        cells::merge_threshold(&rules)
    );
    Ok(())
}
