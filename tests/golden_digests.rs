//! Golden determinism digests, pinned across commits: what
//! `ayb run --scale reduced --seed S --optimizer O` prints for seeds 2, 3
//! and 7 under every optimiser.
//!
//! A kernel change that claims to be bit-identical (pivot ranking, operation
//! order, the Monte Carlo fan-out) must leave every value below unchanged.
//! The digests pass through the platform libm (`hypot`, `log10`, `atan2`,
//! `exp`), so they are pinned for Linux x86_64 only.

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::path::PathBuf;
use std::process::Command;

const SEEDS: [&str; 3] = ["2", "3", "7"];

fn temp_store(label: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("ayb-golden-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create temp store");
    root
}

/// Runs `ayb run` for each seed and returns the digests it prints.
fn digests(optimizer: &str) -> Vec<String> {
    let store = temp_store(optimizer);
    let digests = SEEDS
        .iter()
        .map(|seed| {
            let output = Command::new(env!("CARGO_BIN_EXE_ayb"))
                .args(["run", "--store", store.to_str().expect("utf-8 store path")])
                .args(["--scale", "reduced", "--seed", seed])
                .args(["--optimizer", optimizer, "--quiet"])
                .output()
                .expect("ayb binary runs");
            assert!(
                output.status.success(),
                "ayb run failed: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            String::from_utf8_lossy(&output.stdout)
                .lines()
                .find_map(|line| line.strip_prefix("digest: "))
                .expect("ayb run prints a digest")
                .to_string()
        })
        .collect();
    let _ = std::fs::remove_dir_all(store);
    digests
}

#[test]
fn wbga_dense_digests_are_pinned() {
    assert_eq!(
        digests("wbga"),
        ["106c7cfc0013fa92", "f587e18da210ed28", "137f14992d0ab4b2"]
    );
}

#[test]
fn nsga2_dense_digests_are_pinned() {
    assert_eq!(
        digests("nsga2"),
        ["34cbe98903ffe9e9", "a73310c98a41e906", "561b4c636d28253e"]
    );
}

#[test]
fn random_dense_digests_are_pinned() {
    assert_eq!(
        digests("random"),
        ["b7121713d49362d3", "0f694c6694b53131", "1467292923aa3a1b"]
    );
}
