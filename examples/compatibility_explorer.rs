//! Compatibility explorer: run the paper's Algorithm 1 (signed BFS) from a
//! query user and inspect the positive / negative shortest-path counts that
//! drive the SPA / SPM / SPO decisions, plus the SBP view of the same user.
//!
//! Run with: `cargo run --example compatibility_explorer -- [node]`

use signed_graph::csr::CsrGraph;
use signed_graph::NodeId;
use tfsn_core::compat::sp::signed_bfs;
use tfsn_core::compat::{compute_row, CompatibilityKind, EngineConfig};

fn main() {
    let dataset = tfsn_datasets::slashdot();
    let graph = &dataset.graph;
    let csr = CsrGraph::from_graph(graph);

    let query: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0)
        .min(graph.node_count().saturating_sub(1));
    let q = NodeId::new(query);
    println!(
        "Query node {} (degree {}, {} positive / {} negative edges)\n",
        query,
        graph.degree(q),
        graph.positive_degree(q),
        graph.negative_degree(q)
    );

    // Algorithm 1: positive / negative shortest-path counts.
    let counts = signed_bfs(&csr, q);
    println!("Algorithm 1 output for the 15 nearest users:");
    println!(
        "{:>6} {:>5} {:>8} {:>8}  relation verdicts",
        "node", "L", "N+", "N-"
    );
    let mut order: Vec<usize> = (0..graph.node_count()).filter(|&v| v != query).collect();
    order.sort_by_key(|&v| (counts.dist[v], v));
    let engine = EngineConfig::default();
    let views: Vec<_> = [
        CompatibilityKind::Spa,
        CompatibilityKind::Spm,
        CompatibilityKind::Spo,
        CompatibilityKind::Sbph,
        CompatibilityKind::Nne,
    ]
    .iter()
    .map(|&k| (k, compute_row(graph, &csr, q, k, &engine)))
    .collect();
    for &v in order.iter().take(15) {
        let verdicts: Vec<String> = views
            .iter()
            .map(|(k, row)| {
                format!(
                    "{}={}",
                    k.label(),
                    if row.is_compatible(v) { "✓" } else { "✗" }
                )
            })
            .collect();
        println!(
            "{:>6} {:>5} {:>8} {:>8}  {}",
            v,
            counts.dist[v],
            counts.positive[v],
            counts.negative[v],
            verdicts.join(" ")
        );
    }

    // Summary per relation.
    println!("\nPer-relation summary from node {query}:");
    for (kind, row) in &views {
        println!(
            "  {:>4}: {:>3} compatible users, mean distance {}",
            kind.label(),
            row.compatible_count() - 1,
            row.mean_compatible_distance()
                .map(|d| format!("{d:.2}"))
                .unwrap_or_else(|| "–".into())
        );
    }
}
