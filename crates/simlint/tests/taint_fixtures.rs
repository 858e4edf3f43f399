//! T-rule suite: the seeded fixture *workspaces* under
//! `tests/fixtures/t_violations` and `tests/fixtures/t_clean` pin the
//! interprocedural taint analysis end to end — every T-rule fires with
//! an exact, path-naming diagnostic on the seeded tree and stays silent
//! on its deterministic twin (whose one reviewed `simlint::allow`
//! waiver must count as used). The final tests prove the acceptance
//! criteria on the real tree: an injected stream-label collision and an
//! injected drawn reseed are both caught with entry → sink paths.

use std::path::{Path, PathBuf};
use std::process::Command;

use simdc_simlint::{analyze_sources, lint_sources, lint_workspace, Config};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn scan(name: &str) -> Vec<String> {
    let root = fixture_root(name);
    let cfg = Config::load(&root).expect("fixture simlint.toml parses");
    let report = lint_workspace(&root, &cfg).expect("fixture scan succeeds");
    report.findings.iter().map(ToString::to_string).collect()
}

/// Every T-rule fires on the seeded workspace, and the rendered
/// diagnostics — including the entry → callee paths and the T1
/// cross-reference between colliding label sites — are pinned verbatim.
/// Message wording is contract: CI logs are read by humans chasing a
/// red build.
#[test]
fn seeded_workspace_pins_every_t_rule_diagnostic() {
    assert_eq!(
        scan("t_violations"),
        vec![
            "crates/demo/src/lib.rs:64:34: [T1/rng-stream-aliasing] rng stream label \"worker\" is also used at crates/demo/src/lib.rs:65:29 — path: `Worker::build`; streams sharing a label draw identical sequences: give each stream a distinct label (simlint.toml [rules.determinism-taint])",
            "crates/demo/src/lib.rs:65:29: [T1/rng-stream-aliasing] rng stream label \"worker\" is also used at crates/demo/src/lib.rs:64:34 — path: `Worker::build`; streams sharing a label draw identical sequences: give each stream a distinct label (simlint.toml [rules.determinism-taint])",
            "crates/demo/src/lib.rs:66:37: [T1/rng-stream-aliasing] rng stream label for `RngStream::named` is not a constant string — path: `Worker::build`; non-literal labels cannot be audited for stream aliasing: use a string literal, or suppress with a reviewed `simlint::allow` (simlint.toml [rules.determinism-taint])",
            "crates/demo/src/lib.rs:67:22: [T4/seed-provenance] argument reaches the seed of `RngStream::named` inside `mk` while carrying drawn or float taint — path: `Worker::build`; seeds must trace to the experiment seed or config (simlint.toml [rules.determinism-taint])",
            "crates/demo/src/lib.rs:68:15: [T2/rng-escape] draw-tainted value flows into shared sink `EventQueue::push` — path: `Worker::build`; randomness may not escape the compute phase into shared or merge state (simlint.toml [rules.determinism-taint])",
            "crates/demo/src/lib.rs:70:17: [T2/rng-escape] draw-tainted value assigned to `ev.time` — path: `Worker::build`; `time` orders the deterministic merge and must not depend on draw order (simlint.toml [rules.determinism-taint])",
            "crates/demo/src/lib.rs:82:17: [T3/unordered-float-reduction] float accumulation inside iteration over unordered `HashMap` — path: `Worker::build` → `Worker::tally`; float addition is not associative, so the sum depends on `HashMap` order: iterate a `BTreeMap` or sort keys first (simlint.toml [rules.determinism-taint])",
            "crates/demo/src/lib.rs:84:37: [T3/unordered-float-reduction] unordered float reduction `.sum(..)` over `HashMap` — path: `Worker::build` → `Worker::tally`; float addition is not associative, so the result depends on `HashMap` order: iterate a `BTreeMap` or sort keys first (simlint.toml [rules.determinism-taint])",
            "simlint.toml:1:1: [T0/unresolved-config] [rules.determinism-taint] entry `Ghost::missing` matches no function in the workspace — fix the spec or remove the stale entry",
        ]
    );
}

/// The deterministic twin — distinct constant labels, ordered
/// containers, seeds traced to the experiment seed, a reviewed and
/// *used* `simlint::allow` waiver — has zero findings.
#[test]
fn clean_workspace_has_zero_findings() {
    assert_eq!(scan("t_clean"), Vec::<String>::new());
}

/// The CLI gate holds on both fixture workspaces: violations exit 1,
/// the clean twin exits 0 even though it contains a (used) waiver.
#[test]
fn cli_gate_on_fixture_workspaces() {
    let run = |name: &str, format: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_simdc-simlint"))
            .args(["--workspace", "--format", format, "--root"])
            .arg(fixture_root(name))
            .output()
            .expect("binary runs");
        (
            out.status.code().expect("exit code"),
            String::from_utf8(out.stdout).expect("utf8 stdout"),
        )
    };

    let (code, stdout) = run("t_violations", "text");
    assert_eq!(code, 1, "{stdout}");
    for rule in [
        "[T1/rng-stream-aliasing]",
        "[T2/rng-escape]",
        "[T3/unordered-float-reduction]",
        "[T4/seed-provenance]",
        "[T0/unresolved-config]",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }

    let (code, stdout) = run("t_clean", "text");
    assert_eq!(code, 0, "{stdout}");
    assert_eq!(
        stdout,
        "simlint: clean (1 files scanned; call graph: 7 fns, 7 edges)\n"
    );
}

/// `--format sarif` emits a SARIF 2.1.0 document on stdout, carries
/// every fired rule id, and is byte-deterministic across runs.
#[test]
fn sarif_output_is_complete_and_deterministic() {
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_simdc-simlint"))
            .args(["--workspace", "--format", "sarif", "--root"])
            .arg(fixture_root("t_violations"))
            .output()
            .expect("binary runs");
        (
            out.status.code().expect("exit code"),
            String::from_utf8(out.stdout).expect("utf8 stdout"),
        )
    };

    let (code, sarif) = run();
    assert_eq!(code, 1, "{sarif}");
    assert!(
        sarif.contains("\"version\": \"2.1.0\""),
        "SARIF version pinned:\n{sarif}"
    );
    assert!(
        sarif.contains("\"$schema\""),
        "SARIF schema reference present:\n{sarif}"
    );
    for rule in [
        "T0/unresolved-config",
        "T1/rng-stream-aliasing",
        "T2/rng-escape",
        "T3/unordered-float-reduction",
        "T4/seed-provenance",
    ] {
        assert!(
            sarif.contains(&format!("\"id\": \"{rule}\"")),
            "rule {rule} missing from the rules array:\n{sarif}"
        );
    }
    assert!(
        sarif.contains("\"uri\": \"crates/demo/src/lib.rs\""),
        "result locations use workspace-relative URIs:\n{sarif}"
    );

    let (_, again) = run();
    assert_eq!(sarif, again, "SARIF must be byte-deterministic");
}

/// A `simlint::allow` that suppresses nothing is itself a finding (S1):
/// stale waivers rot into false confidence and must be cleaned up.
#[test]
fn unused_suppression_is_reported_as_s1() {
    let files = vec![(
        "crates/demo/src/lib.rs".to_string(),
        concat!(
            "//! Demo.\n",
            "#![deny(missing_docs)]\n",
            "#![forbid(unsafe_code)]\n",
            "/// Nothing here needs a waiver.\n",
            "pub fn quiet() -> u64 {\n",
            "    // simlint::allow(T4/seed-provenance): stale waiver, nothing fires here\n",
            "    7\n",
            "}\n",
        )
        .to_string(),
    )];
    let report = lint_sources(&files, &Config::default()).expect("sources lint");
    let rendered: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert_eq!(
        rendered,
        vec![
            "crates/demo/src/lib.rs:6:5: [S1/unused-suppression] suppression `simlint::allow(T4/seed-provenance)` matched no finding on line 7 — remove it, or fix the rule code it should waive",
        ]
    );
}

/// Collects the real workspace's in-scope sources exactly as the walk
/// does (root `src/` plus `crates/*/src`, `/`-separated relative paths).
fn real_sources(root: &Path) -> Vec<(String, String)> {
    fn collect(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("readable source dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                collect(&path, root, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                let source = std::fs::read_to_string(&path).expect("readable source");
                out.push((rel, source));
            }
        }
    }
    let mut out = Vec::new();
    if root.join("src").is_dir() {
        collect(&root.join("src"), root, &mut out);
    }
    let mut members: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    members.sort();
    for member in members {
        collect(&member.join("src"), root, &mut out);
    }
    out
}

/// Loads the real tree, asserts it is taint-clean under the real
/// policy, and returns (sources, config) ready for an injection.
fn clean_real_tree() -> (Vec<(String, String)>, Config) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let cfg = Config::load(&root).expect("real simlint.toml parses");
    let sources = real_sources(&root);
    let (findings, _) = analyze_sources(&sources, &cfg);
    assert!(
        findings.is_empty(),
        "real tree must be clean before injection:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    (sources, cfg)
}

/// A statement of `TaskRunner::plan_timeline`, past the DeviceFlow set-up,
/// where injected code still has the task's `rng` in scope.
const PLAN_TIMELINE_ANCHOR: &str = "let trainer = LocalTrainer::new(spec.train);";

/// Injects `extra` right after [`PLAN_TIMELINE_ANCHOR`] and returns the
/// 1-based line number the injection lands on.
fn inject_into_plan_timeline(sources: &mut [(String, String)], extra: &str) -> usize {
    let runner = sources
        .iter_mut()
        .find(|(rel, _)| rel == "crates/core/src/runner.rs")
        .expect("runner.rs is in scope");
    assert_eq!(
        runner.1.matches(PLAN_TIMELINE_ANCHOR).count(),
        1,
        "plan_timeline anchor moved"
    );
    let at = runner.1.find(PLAN_TIMELINE_ANCHOR).expect("anchor present");
    // The prefix ends in the anchor line's indentation, so `lines()`
    // counts the anchor line itself; the injection lands one below.
    let line = runner.1[..at].lines().count() + 1;
    runner.1 = runner.1.replace(
        PLAN_TIMELINE_ANCHOR,
        &format!("{PLAN_TIMELINE_ANCHOR}\n        {extra}"),
    );
    line
}

/// Acceptance criterion, T1 on the real tree: forking a second stream
/// with the label `"deviceflow"` inside `TaskRunner::plan_timeline`
/// collides with the function's existing DeviceFlow fork, and both sites
/// are reported, each naming the other.
#[test]
fn injected_label_collision_is_caught_on_the_real_tree() {
    let (mut sources, cfg) = clean_real_tree();
    let line = inject_into_plan_timeline(&mut sources, "let mut dup = rng.fork(\"deviceflow\");");

    let (findings, _) = analyze_sources(&sources, &cfg);
    let t1: Vec<String> = findings
        .iter()
        .filter(|f| f.code == "T1/rng-stream-aliasing")
        .map(ToString::to_string)
        .collect();
    assert_eq!(t1.len(), 2, "both collision sites expected: {findings:?}");
    let injected_at = format!("crates/core/src/runner.rs:{line}:");
    let injected = t1
        .iter()
        .find(|m| m.starts_with(&injected_at))
        .unwrap_or_else(|| panic!("injected site {injected_at} not reported: {t1:?}"));
    let existing = t1
        .iter()
        .find(|m| !m.starts_with(&injected_at))
        .expect("existing plan_timeline site reported");
    let existing_at = existing
        .split(": [")
        .next()
        .expect("finding starts with its location");
    assert!(
        existing.starts_with("crates/core/src/runner.rs:"),
        "existing site is the DeviceFlow fork in runner.rs: {existing}"
    );
    assert!(
        injected.contains("\"deviceflow\"")
            && injected.contains(&format!("is also used at {existing_at} "))
            && injected.contains("`TaskRunner::plan_timeline`"),
        "injected site must name the label, the other site and the entry: {injected}"
    );
    assert!(
        existing.contains(&format!("is also used at {injected_at}"))
            && existing.contains("`TaskRunner::plan_timeline`"),
        "existing site must point back at the injection: {existing}"
    );
}

/// Acceptance criterion, T4 on the real tree: reseeding a stream from a
/// draw inside `TaskRunner::plan_timeline` must produce a
/// seed-provenance finding on a path from the worker entry.
#[test]
fn injected_drawn_reseed_is_caught_on_the_real_tree() {
    let (mut sources, cfg) = clean_real_tree();
    inject_into_plan_timeline(
        &mut sources,
        "let reseed = rng.next_u64();\n        let mut rogue = RngStream::named(reseed, \"task/rogue\");",
    );

    let (findings, _) = analyze_sources(&sources, &cfg);
    let t4: Vec<String> = findings
        .iter()
        .filter(|f| f.code == "T4/seed-provenance")
        .map(ToString::to_string)
        .collect();
    assert_eq!(t4.len(), 1, "exactly one T4 expected: {findings:?}");
    assert!(
        t4[0].starts_with("crates/core/src/runner.rs")
            && t4[0].contains("`RngStream::named`")
            && t4[0].contains("`TaskRunner::plan_timeline`"),
        "T4 must name the seed sink and the entry path: {}",
        t4[0]
    );
}
