//! Word-scale dense-oracle check of the sparse LU.
//!
//! The sparse engine eliminates columns in a minimum-degree order, so on
//! a circuit of more than a few unknowns it rounds differently from the
//! dense partial-pivoted oracle. The spice crate's `sparse_equivalence`
//! fixtures are too small for the order to matter; this test runs a
//! 4-bit NV word (72 MNA unknowns) through a store transient on both
//! engines, under fixed stepping so that both see the same time grid.

use cells::{control, generator, LatchConfig, WordParams, WordStimulus};
use spice::analysis::StartCondition;
use spice::{
    SimulationSession, SolverKind, SolverStats, StepControl, TransientOptions, TransientResult,
};

/// The bound `sparse_equivalence` holds the sparse engine to.
const REL_TOL: f64 = 1e-9;

fn store_transient(solver: SolverKind) -> (TransientResult, usize) {
    let config = LatchConfig::default();
    let vdd = config.vdd();
    let params = WordParams::new(4);
    let controls = control::store(&config.timing, vdd);
    let data = [true, false, true, true];
    let initial = [false, true, false, true];
    let stim = WordStimulus::store(&params, &controls, vdd, &data);
    let ckt = generator::word_circuit(&params, &config, &stim, &initial).expect("word circuit");
    let unknowns = spice::analysis::matrix_pattern(&ckt).dim();
    let mut session = SimulationSession::with_solver(ckt, solver);
    let options = TransientOptions {
        step_control: StepControl::Fixed,
        ..config.transient_options(StartCondition::OperatingPoint)
    };
    let result = session
        .transient_with_options(controls.total, config.time_step, options)
        .expect("store transient");
    (result, unknowns)
}

#[test]
fn nv_word_store_matches_the_dense_oracle() {
    let (dense, unknowns) = store_transient(SolverKind::Dense);
    let (sparse, _) = store_transient(SolverKind::Sparse);
    assert_eq!(unknowns, 72, "the fixture is word scale");

    assert_eq!(dense.times(), sparse.times(), "time axes differ");
    // Pattern reuses are sparse-only bookkeeping; every other counter
    // must match.
    let sparse_stats = SolverStats {
        pattern_reuses: 0,
        ..sparse.solver_stats()
    };
    assert_eq!(dense.solver_stats(), sparse_stats);

    let names: Vec<&str> = dense.node_names().collect();
    assert!(!names.is_empty());
    for name in names {
        let vd = dense.node(name).expect("node in dense");
        let vs = sparse.node(name).expect("node in sparse");
        for (i, (x, y)) in vd.values().iter().zip(vs.values()).enumerate() {
            // Relative with a 1 V floor, as in `sparse_equivalence`.
            let err = (x - y).abs() / x.abs().max(y.abs()).max(1.0);
            assert!(
                err <= REL_TOL,
                "node {name} sample {i}: dense {x:e} vs sparse {y:e}"
            );
        }
    }
}

/// The stamp plan derives the sparse pattern from a static enumeration
/// of every device's matrix adds. On the generator's idle words it must
/// give the structural nonzero counts `perfbench/reference.json` records
/// (`n{1,2,4,8}.csr_nnz`).
#[test]
fn nv_word_patterns_keep_their_nonzero_counts() {
    let config = LatchConfig::default();
    for (bits, nnz) in [(1, 121), (2, 220), (4, 376), (8, 716)] {
        let params = WordParams::new(bits);
        let stim = WordStimulus::idle(&params, config.vdd());
        let ckt = generator::word_circuit(&params, &config, &stim, &vec![false; bits])
            .expect("word circuit");
        assert_eq!(
            spice::analysis::matrix_pattern(&ckt).nnz(),
            nnz,
            "n = {bits} word"
        );
    }
}
