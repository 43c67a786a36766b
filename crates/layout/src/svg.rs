//! SVG rendering of cell layouts (the repository's Fig. 8 equivalent).

use crate::geometry::{CellLayout, Layer, Rect};

/// Fill colour and opacity per layer, following conventional EDA
/// colouring (diffusion green, poly red, M1 blue, M2 violet).
fn style(layer: Layer) -> (&'static str, f64) {
    match layer {
        Layer::Outline => ("none", 1.0),
        Layer::Nwell => ("#fff7cc", 0.8),
        Layer::Pdiff => ("#7ccf6e", 0.85),
        Layer::Ndiff => ("#3e9e4f", 0.85),
        Layer::Poly => ("#d84a3a", 0.9),
        Layer::Metal1 => ("#3d6fd6", 0.55),
        Layer::Metal2 => ("#8e5bd0", 0.5),
        Layer::Mtj => ("#f2a93b", 0.95),
    }
}

/// Renders a cell layout to a standalone SVG document.
///
/// The drawing is scaled by `pixels_per_micron`; a title and the cell
/// area are printed above the geometry.
///
/// # Examples
///
/// ```
/// use layout::{svg, CellLayout, CellSpec, DesignRules, Row, TransistorSpec};
/// use units::Length;
///
/// let w = Length::from_nano_meters(400.0);
/// let mut inv = CellSpec::new("INV");
/// inv.transistors.push(TransistorSpec::new("MP", Row::P, "a", "vdd", "y", w));
/// inv.transistors.push(TransistorSpec::new("MN", Row::N, "a", "gnd", "y", w));
/// let layout = CellLayout::synthesize(&inv, &DesignRules::n40());
/// let drawing = svg::render(&layout, 200.0);
/// assert!(drawing.starts_with("<svg"));
/// assert!(drawing.contains("INV"));
/// ```
#[must_use]
pub fn render(layout: &CellLayout, pixels_per_micron: f64) -> String {
    let scale = pixels_per_micron;
    let w = layout.width().micro_meters() * scale;
    let h = layout.height().micro_meters() * scale;
    let header_h = 28.0;
    let margin = 10.0;
    let total_w = w + margin * 2.0;
    let total_h = h + header_h + margin;

    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{total_w:.0}\" \
         height=\"{total_h:.0}\" viewBox=\"0 0 {total_w:.1} {total_h:.1}\">\n"
    ));
    out.push_str(&format!(
        "  <text x=\"{margin}\" y=\"18\" font-family=\"monospace\" font-size=\"13\">\
         {} — {:.3} µm² ({:.3} × {:.3} µm)</text>\n",
        layout.name(),
        layout.area().square_micro_meters(),
        layout.width().micro_meters(),
        layout.height().micro_meters(),
    ));

    // Geometry, y-flipped so the VDD rail draws on top.
    let flip_y = |r: &Rect| header_h + (layout.height().micro_meters() - r.y - r.h) * scale;
    for rect in layout.rects() {
        let (fill, opacity) = style(rect.layer);
        let stroke = if rect.layer == Layer::Outline {
            " stroke=\"#222\" stroke-width=\"1.5\""
        } else {
            " stroke=\"none\""
        };
        out.push_str(&format!(
            "  <rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" \
             fill=\"{fill}\" fill-opacity=\"{opacity}\"{stroke}/>\n",
            margin + rect.x * scale,
            flip_y(rect),
            rect.w * scale,
            rect.h * scale,
        ));
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::DesignRules;
    use crate::spec::{fixtures, MtjSpec};

    #[test]
    fn render_contains_all_layers() {
        let mut spec = fixtures::inverter();
        spec.mtjs.push(MtjSpec::new("X0", "y", "m"));
        let layout = CellLayout::synthesize(&spec, &DesignRules::n40());
        let svg = render(&layout, 100.0);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("#f2a93b")); // the MTJ pad
        assert!(svg.contains("#d84a3a")); // poly
        assert!(svg.contains("µm²"));
    }

    #[test]
    fn rect_count_matches_geometry() {
        let layout = CellLayout::synthesize(&fixtures::inverter(), &DesignRules::n40());
        let svg = render(&layout, 100.0);
        let rect_count = svg.matches("<rect").count();
        assert_eq!(rect_count, layout.rects().len());
    }
}
