//! The user-facing docs cite only runnable things: every `--bin <name>`,
//! every backticked `exp_*` name and every `scripts/…` path in README.md,
//! EXPERIMENTS.md and the verify skill must resolve to a file in this
//! repository.

use std::path::Path;

const DOCS: [&str; 3] = [
    "README.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// The leading identifier (`[A-Za-z0-9_]*`) of `s`.
fn ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// Whether some package in the repository has a `src/bin/<name>.rs`.
fn bin_exists(root: &Path, name: &str) -> bool {
    let file = format!("src/bin/{name}.rs");
    root.join(&file).is_file()
        || std::fs::read_dir(root.join("crates"))
            .expect("crates/ is readable")
            .any(|krate| krate.expect("crates/ entry").path().join(&file).is_file())
}

/// Every citation in `text` as `(line, what, resolves)`.
fn citations(root: &Path, text: &str) -> Vec<(usize, String, bool)> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for (at, _) in line.match_indices("--bin ") {
            let name = ident(line[at + "--bin ".len()..].trim_start());
            out.push((n + 1, format!("--bin {name}"), bin_exists(root, name)));
        }
        for (at, _) in line.match_indices("`exp_") {
            let name = ident(&line[at + 1..]);
            out.push((n + 1, format!("`{name}`"), bin_exists(root, name)));
        }
        for (at, _) in line.match_indices("scripts/") {
            let rest = &line[at..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || "_-./".contains(c)))
                .unwrap_or(rest.len());
            let path = rest[..end].trim_end_matches('.');
            out.push((n + 1, path.to_string(), root.join(path).is_file()));
        }
    }
    out
}

#[test]
fn docs_cite_only_binaries_and_scripts_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        for (line, what, resolves) in citations(root, &text) {
            checked += 1;
            if !resolves {
                missing.push(format!("{doc}:{line}: {what}"));
            }
        }
    }
    assert!(checked > 0, "the scan found no citations at all");
    assert!(
        missing.is_empty(),
        "docs cite targets with no file behind them:\n{}",
        missing.join("\n")
    );
}

#[test]
fn scanner_reads_all_three_citation_forms() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = "run `cargo run --bin serve_load` or `exp_fig7 --smoke`\n\
                see scripts/no_such_script.sh.";
    let found = citations(root, text);
    assert_eq!(
        found,
        vec![
            (1, "--bin serve_load".to_string(), true),
            (1, "`exp_fig7`".to_string(), true),
            (2, "scripts/no_such_script.sh".to_string(), false),
        ]
    );
}
