//! Doc-sync tests: the documentation under `docs/` is kept honest
//! against the code it describes. If a route, metrics field, or crate
//! is added without documenting it, one of these fails.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: impl AsRef<Path>) -> String {
    let path = repo_root().join(path.as_ref());
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

/// Every `/v1/...` route string spelled anywhere in the serve, router,
/// or opt crate's sources (`server.rs`, `api.rs`, ...) must appear in
/// docs/API.md — router-only endpoints like `/v1/shards` included.
#[test]
fn every_serve_route_is_documented_in_api_md() {
    let api_md = read("docs/API.md");
    let mut routes: BTreeSet<String> = BTreeSet::new();
    for src_dir in ["crates/serve/src", "crates/router/src", "crates/opt/src"] {
        let src_dir = repo_root().join(src_dir);
        for entry in std::fs::read_dir(&src_dir).expect("crate src dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("rs") {
                continue;
            }
            let source = std::fs::read_to_string(&path).unwrap();
            // Route strings as they appear in source: "/v1/<word>".
            let mut rest = source.as_str();
            while let Some(at) = rest.find("/v1/") {
                let tail = &rest[at + 4..];
                let name: String = tail
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    routes.insert(format!("/v1/{name}"));
                }
                rest = &rest[at + 4..];
            }
        }
    }
    assert!(
        routes.contains("/v1/shards"),
        "expected the router-only /v1/shards endpoint in the scan, found {routes:?}"
    );
    for handoff in ["/v1/warm", "/v1/evict"] {
        assert!(
            routes.contains(handoff),
            "expected the rebalance-handoff endpoint {handoff} in the scan, found {routes:?}"
        );
    }
    assert!(
        routes.len() >= 9,
        "expected at least the nine endpoints, found {routes:?}"
    );
    for route in &routes {
        assert!(
            api_md.contains(route),
            "route `{route}` (spelled in crates/serve/src or crates/router/src) is missing from docs/API.md"
        );
    }
}

/// The store metrics fields the server emits must be documented, and
/// the doc must not invent fields the server doesn't emit.
#[test]
fn store_metrics_fields_match_api_md() {
    let api_rs = read("crates/serve/src/api.rs");
    let api_md = read("docs/API.md");
    for field in [
        "disk_hits",
        "disk_misses",
        "writes",
        "write_errors",
        "evictions",
    ] {
        assert!(
            api_rs.contains(&format!("\"{field}\"")),
            "`{field}` is no longer emitted by handle_metrics — update this test and docs/API.md"
        );
        assert!(
            api_md.contains(field),
            "store metrics field `{field}` is missing from docs/API.md"
        );
    }
    // The top-level metrics sections, likewise.
    for section in [
        "endpoints",
        "session_pool",
        "elab",
        "store",
        "phases",
        "journal",
        "lifetime",
    ] {
        assert!(
            api_md.contains(section),
            "metrics section `{section}` is missing from docs/API.md"
        );
    }
}

/// Every exposed Prometheus family, shard and router table alike, is
/// spelled out in full in docs/OBSERVABILITY.md.
#[test]
fn every_metric_family_is_documented_in_observability_md() {
    use prophet::serve::prometheus::{ROUTER_FAMILIES, SHARD_FAMILIES};
    let observability_md = read("docs/OBSERVABILITY.md");
    for family in SHARD_FAMILIES.iter().chain(ROUTER_FAMILIES) {
        assert!(
            observability_md.contains(&format!("`{}`", family.name)),
            "family `{}` is missing from docs/OBSERVABILITY.md",
            family.name
        );
    }
}

/// README links both documents, and they exist.
#[test]
fn readme_links_the_docs_layer() {
    let readme = read("README.md");
    for doc in [
        "docs/API.md",
        "docs/ARCHITECTURE.md",
        "docs/OBSERVABILITY.md",
    ] {
        assert!(readme.contains(doc), "README.md must link {doc}");
        assert!(repo_root().join(doc).exists(), "{doc} does not exist");
    }
}

/// The architecture doc's crate map covers every workspace crate.
#[test]
fn architecture_md_covers_every_crate() {
    let arch = read("docs/ARCHITECTURE.md");
    for entry in std::fs::read_dir(repo_root().join("crates")).expect("crates dir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            arch.contains(name.as_ref()),
            "crate `{name}` is missing from docs/ARCHITECTURE.md's crate map"
        );
    }
}

/// The CLI's usage block and the README agree on the command set —
/// every `prophet <cmd>` the usage text advertises is shown in README.
#[test]
fn readme_shows_every_cli_command() {
    let main_rs = read("src/main.rs");
    let readme = read("README.md");
    for cmd in [
        "check",
        "transform",
        "estimate",
        "sweep",
        "optimize",
        "serve",
        "router",
        "warm",
        "store",
        "metrics",
        "demo",
    ] {
        assert!(
            main_rs.contains(&format!("prophet {cmd}")),
            "usage text no longer mentions `prophet {cmd}` — update this test"
        );
        assert!(
            readme.contains(&format!("prophet {cmd}")),
            "README.md quickstart is missing `prophet {cmd}`"
        );
    }
}

/// Every `*.md` file name spelled in the sources or docs names a file
/// that exists: relative to the referencing file's directory or one of
/// its ancestors up to the repository root.
#[test]
fn every_markdown_reference_resolves() {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "md" || e == "toml")
            {
                files.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    for dir in ["crates", "src", "tests", "examples", "docs", "perfbench"] {
        walk(&root.join(dir), &mut files);
    }
    let mut checked = 0;
    let mut missing = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        let bytes = text.as_bytes();
        let is_name = |b: u8| b.is_ascii_alphanumeric() || b"_./-".contains(&b);
        for (at, _) in text.match_indices(".md") {
            let end = at + 3;
            if bytes.get(end).is_some_and(|b| b.is_ascii_alphanumeric()) {
                continue;
            }
            let start = (0..at).rev().take_while(|&i| is_name(bytes[i])).last();
            let Some(start) = start else { continue };
            let name = text[start..end].trim_start_matches("./");
            checked += 1;
            let resolves = file
                .ancestors()
                .skip(1)
                .take_while(|dir| dir.starts_with(&root))
                .any(|dir| dir.join(name).is_file());
            if !resolves {
                missing.push(format!(
                    "{}: {name}",
                    file.strip_prefix(&root).unwrap().display()
                ));
            }
        }
    }
    assert!(
        checked >= 20,
        "expected the scan to find the docs links, found {checked}"
    );
    assert!(
        missing.is_empty(),
        "references to missing files: {missing:#?}"
    );
}
