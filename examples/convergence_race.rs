//! Figure 2 live: GOBO vs K-Means on one synthetic BERT-Base layer.
//!
//! Both policies share the same outlier split, the same
//! equal-population initialization, and the same assignment/update
//! rule — they differ only in when they stop. GOBO halts at the L1
//! minimum (~7 iterations); K-Means runs to assignment convergence.
//!
//! Run with `cargo run --release -p gobo-examples --bin convergence_race`.

use gobo_model::config::ModelConfig;
use gobo_model::spec::enumerate_fc_layers;
use gobo_model::synth::{layer_distribution, synthesize_layer};
use gobo_quant::{gobo, kmeans, OutlierSplit};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ModelConfig::bert_base();
    let specs = enumerate_fc_layers(&config);
    let idx = specs.len() / 2;
    let dist = layer_distribution(&config, idx, specs.len());
    println!("synthesizing {} ({} weights)...", specs[idx].name, specs[idx].params());
    let weights = synthesize_layer(&specs[idx], &dist, 7);

    let split = OutlierSplit::detect(&weights, -4.0)?;
    println!(
        "outliers: {} of {} ({:.3}%)",
        split.outlier_count(),
        split.total(),
        split.outlier_fraction() * 100.0
    );

    let g_group: Vec<f32> = weights.iter().copied().filter(|&w| !split.is_outlier(w)).collect();
    let g = gobo::quantize_g(&g_group, 8, 1000)?;
    let k = kmeans::quantize_g(&g_group, 8, 1000)?;

    println!(
        "\n{:>5} {:>16} {:>16} {:>16} {:>16}",
        "iter", "GOBO L1", "GOBO L2", "KMeans L1", "KMeans L2"
    );
    let rows = g.trace.iterations().max(k.trace.iterations());
    for i in 0..rows {
        let cell = |v: Option<&f64>| v.map_or("-".to_owned(), |x| format!("{x:.1}"));
        println!(
            "{:>5} {:>16} {:>16} {:>16} {:>16}",
            i,
            cell(g.trace.l1.get(i)),
            cell(g.trace.l2.get(i)),
            cell(k.trace.l1.get(i)),
            cell(k.trace.l2.get(i)),
        );
    }
    println!(
        "\nGOBO stopped after {} iterations (selected #{}), K-Means after {} — {:.1}x more.",
        g.trace.iterations(),
        g.trace.selected_iteration,
        k.trace.iterations(),
        k.trace.iterations() as f64 / g.trace.iterations() as f64
    );
    println!(
        "final L1: GOBO {:.1} vs K-Means {:.1}; final L2: GOBO {:.1} vs K-Means {:.1}",
        g.trace.l1[g.trace.selected_iteration],
        k.trace.l1.last().unwrap(),
        g.trace.l2[g.trace.selected_iteration],
        k.trace.l2.last().unwrap(),
    );
    Ok(())
}
