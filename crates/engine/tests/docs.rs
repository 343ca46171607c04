//! Documentation anti-rot checks:
//!
//! * every request `op` label and every typed error code the build can
//!   emit must appear in `docs/PROTOCOL.md` (so a protocol change cannot
//!   ship undocumented);
//! * `docs/ARCHITECTURE.md` must keep describing the invalidation rules
//!   and shutdown surface it anchors;
//! * `docs/OBSERVABILITY.md` must name every axis label and every
//!   Prometheus family in the registry table
//!   (`tfsn_engine::telemetry::prometheus::FAMILIES`);
//! * `docs/DURABILITY.md` must keep covering every fsync policy and the
//!   WAL/deadline/shedding surface;
//! * local markdown links in README/ROADMAP/docs must resolve to files
//!   that exist.

use std::path::{Path, PathBuf};

use tfsn_core::compat::CompatibilityKind;
use tfsn_engine::{AnswerStatus, Objective, RequestBody, ServiceError};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn protocol_doc_covers_every_op_error_status_and_kind() {
    let doc = read("docs/PROTOCOL.md");
    for op in RequestBody::ALL_OPS {
        assert!(
            doc.contains(&format!("`{op}`")),
            "docs/PROTOCOL.md is missing request op `{op}` — document it \
             (every op in RequestBody::ALL_OPS must appear)"
        );
    }
    for code in ServiceError::ALL_CODES {
        assert!(
            doc.contains(&format!("`{code}`")),
            "docs/PROTOCOL.md is missing error code `{code}` — document it \
             (every code in ServiceError::ALL_CODES must appear, with its \
             HTTP status mapping)"
        );
    }
    for status in AnswerStatus::ALL {
        assert!(
            doc.contains(&format!("`{}`", status.label())),
            "docs/PROTOCOL.md is missing answer status `{}`",
            status.label()
        );
    }
    for kind in CompatibilityKind::ALL {
        assert!(
            doc.contains(&format!("`{}`", kind.label())),
            "docs/PROTOCOL.md is missing relation kind `{}`",
            kind.label()
        );
    }
    for objective in Objective::ALL_LABELS {
        assert!(
            doc.contains(&format!("`{objective}`")),
            "docs/PROTOCOL.md is missing team objective `{objective}` — \
             document it (every label in Objective::ALL_LABELS must appear)"
        );
    }
}

#[test]
fn architecture_doc_keeps_its_anchors() {
    let doc = read("docs/ARCHITECTURE.md");
    // The invalidation rule table names every kind and the predicate.
    for kind in CompatibilityKind::ALL {
        assert!(
            doc.contains(&format!("`{}`", kind.label())),
            "docs/ARCHITECTURE.md is missing the invalidation rule for {}",
            kind.label()
        );
    }
    for objective in Objective::ALL_LABELS {
        assert!(
            doc.contains(&format!("`{objective}`")),
            "docs/ARCHITECTURE.md is missing team objective `{objective}` — \
             the objective layer section must name every label"
        );
    }
    for anchor in [
        "row_affected_by_edge",
        "ShutdownHandle",
        "CompatRow",
        "mutations_applied",
        "rows_invalidated",
        "LazyCompatibility",
        "RelationStore",
        "Objective",
        "repair_row",
        "rows_repaired",
        "mutate_batch",
    ] {
        assert!(
            doc.contains(anchor),
            "docs/ARCHITECTURE.md lost its `{anchor}` section"
        );
    }
}

#[test]
fn observability_doc_covers_every_axis_label() {
    let doc = read("docs/OBSERVABILITY.md");
    for op in tfsn_engine::telemetry::Op::ALL {
        assert!(
            doc.contains(&format!("`{}`", op.label())),
            "docs/OBSERVABILITY.md is missing operation label `{}`",
            op.label()
        );
    }
    for phase in tfsn_engine::telemetry::Phase::ALL {
        assert!(
            doc.contains(&format!("`{}`", phase.label())),
            "docs/OBSERVABILITY.md is missing phase label `{}`",
            phase.label()
        );
    }
    for kind in CompatibilityKind::ALL {
        assert!(
            doc.contains(&format!("`{}`", kind.label())),
            "docs/OBSERVABILITY.md is missing relation kind `{}`",
            kind.label()
        );
    }
    for objective in Objective::ALL_LABELS {
        assert!(
            doc.contains(&format!("`{objective}`")),
            "docs/OBSERVABILITY.md is missing objective label `{objective}`"
        );
    }
    for family in tfsn_engine::telemetry::prometheus::FAMILIES {
        assert!(
            doc.contains(&format!("`{}`", family.name)),
            "docs/OBSERVABILITY.md is missing Prometheus family `{}` — every \
             family in prometheus::FAMILIES must appear in its table",
            family.name
        );
    }
    for anchor in ["slow-query log", "query_p50_micros", "+Inf", "wait_micros"] {
        assert!(
            doc.contains(anchor),
            "docs/OBSERVABILITY.md lost its `{anchor}` section"
        );
    }
}

#[test]
fn durability_doc_covers_wal_and_overload_surface() {
    let doc = read("docs/DURABILITY.md");
    for policy in tfsn_engine::FsyncPolicy::ALL {
        assert!(
            doc.contains(&format!("`{}`", policy.label())),
            "docs/DURABILITY.md is missing fsync policy `{}` — every policy \
             in FsyncPolicy::ALL must be documented",
            policy.label()
        );
    }
    for anchor in [
        "torn tail",
        "--wal-dir",
        "--wal-fsync",
        "--max-inflight",
        "--admission-queue",
        "tfsn wal export",
        "tfsn_wal_appends_total",
        "tfsn_wal_fsync_micros",
        "tfsn_requests_shed_total",
        "tfsn_client_retries_total",
        "Retry-After",
        "deadline_ms",
        "deadline_exceeded",
        "overloaded",
        "wal.append",
        "wal.fsync",
        "server.write",
        "CRC-32",
        "never half-applied",
        "mutate_batch",
        "whole group",
    ] {
        assert!(
            doc.contains(anchor),
            "docs/DURABILITY.md lost its `{anchor}` section"
        );
    }
}

#[test]
fn cluster_doc_covers_topology_routing_and_replication() {
    let doc = read("docs/CLUSTER.md");
    // The routing-rules table must keep naming every primary-only op the
    // router sniffs out of /v1/rpc bodies — a new mutation op that is not
    // documented here is a routing hazard, not just a docs gap.
    for op in [
        "edge_insert",
        "edge_remove",
        "edge_set_sign",
        "mutate_batch",
        "wal_pull",
    ] {
        assert!(
            doc.contains(&format!("`{op}`")),
            "docs/CLUSTER.md routing rules lost primary-only op `{op}`"
        );
    }
    for anchor in [
        "--backend",
        "--listen",
        "--probe-ms",
        "--fail-after",
        "--affinity",
        "--follow",
        "--poll-ms",
        "from_seq",
        "next_seq",
        "end_seq",
        "replicated_seq",
        "no_backend",
        "Retry-After",
        "GET /v1/wal",
        "/v1/topology",
        "round-robin",
        "log-less",
        "append-before-apply",
        "kill -9",
    ] {
        assert!(
            doc.contains(anchor),
            "docs/CLUSTER.md lost its `{anchor}` section"
        );
    }
}

/// Extracts `](target)` markdown link targets, skipping external URLs and
/// pure in-page fragments.
fn local_links(markdown: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = markdown.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            if let Some(end) = markdown[i + 2..].find(')') {
                let target = &markdown[i + 2..i + 2 + end];
                let target = target.split(['#', ' ']).next().unwrap_or("");
                if !target.is_empty()
                    && !target.starts_with("http://")
                    && !target.starts_with("https://")
                    && !target.starts_with("mailto:")
                {
                    out.push(target.to_string());
                }
                i += 2 + end;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[test]
fn readme_roadmap_and_docs_links_resolve() {
    for file in [
        "README.md",
        "ROADMAP.md",
        "docs/PROTOCOL.md",
        "docs/ARCHITECTURE.md",
        "docs/OBSERVABILITY.md",
        "docs/DURABILITY.md",
        "docs/CLUSTER.md",
    ] {
        let content = read(file);
        let base = repo_root().join(file);
        let dir = base.parent().expect("file has a parent");
        let links = local_links(&content);
        for link in &links {
            let resolved = dir.join(link);
            assert!(
                resolved.exists(),
                "{file}: link `{link}` does not resolve ({} missing)",
                resolved.display()
            );
        }
        if file == "README.md" {
            assert!(
                links.iter().any(|l| l.ends_with("docs/PROTOCOL.md")),
                "README.md must link docs/PROTOCOL.md"
            );
            assert!(
                links.iter().any(|l| l.ends_with("docs/ARCHITECTURE.md")),
                "README.md must link docs/ARCHITECTURE.md"
            );
            assert!(
                links.iter().any(|l| l.ends_with("docs/OBSERVABILITY.md")),
                "README.md must link docs/OBSERVABILITY.md"
            );
            assert!(
                links.iter().any(|l| l.ends_with("docs/DURABILITY.md")),
                "README.md must link docs/DURABILITY.md"
            );
            assert!(
                links.iter().any(|l| l.ends_with("docs/CLUSTER.md")),
                "README.md must link docs/CLUSTER.md"
            );
        }
    }
}
