//! Hostile input against both decoders of stored artifacts: the JSON
//! text of the artifact files (`serde_json::from_str`) and the tagged
//! binary encoding of the snapshots (`snapshot::decode`). Decoding must
//! stay linear in the input, and a damaged artifact must be an error,
//! never a panic.

use std::time::{Duration, Instant};

use loupe_apps::{registry, Workload};
use loupe_core::{AnalysisConfig, AppReport, Engine};
use loupe_db::snapshot;
use loupe_gentests::ConformanceSuite;
use serde::{Deserialize, Serialize};

fn report(app: &str) -> AppReport {
    let app = registry::find(app).unwrap();
    Engine::new(AnalysisConfig::fast())
        .analyze(app.as_ref(), Workload::HealthCheck)
        .unwrap()
}

/// `value` as the database stores it: pretty JSON and tagged bytes.
fn stored<T: Serialize>(value: &T) -> (String, Vec<u8>) {
    let mut bytes = Vec::new();
    snapshot::encode_value(&value.to_value(), &mut bytes);
    (serde_json::to_string_pretty(value).unwrap(), bytes)
}

/// The fastest of five runs of `f`.
fn fastest(mut f: impl FnMut()) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .unwrap()
}

#[test]
fn decoding_time_grows_linearly_with_the_artifact_list() {
    let one = report("redis");
    let timings = |n: usize| {
        let (json, bytes) = stored(&vec![one.clone(); n]);
        let text = fastest(|| {
            let list: Vec<AppReport> = serde_json::from_str(&json).unwrap();
            assert_eq!(list.len(), n);
        });
        let binary = fastest(|| {
            let list: Vec<AppReport> = snapshot::decode(&bytes).unwrap();
            assert_eq!(list.len(), n);
        });
        (text, binary)
    };
    // Two doublings: linear decoding takes ~4x as long, quadratic ~16x.
    let (text, binary) = timings(16);
    let (text4, binary4) = timings(64);
    for (what, small, large) in [("JSON", text, text4), ("snapshot", binary, binary4)] {
        assert!(
            large < small * 8,
            "{what}: 4x the input took {large:?} against {small:?}"
        );
    }
}

/// Every proper prefix of a stored artifact is an error, and a flipped
/// byte anywhere may decode or fail but never panics.
fn sweep<T: Serialize + Deserialize>(value: &T) {
    let (json, bytes) = stored(value);
    let json = json.as_bytes();
    for cut in 0..json.len() {
        if let Ok(text) = std::str::from_utf8(&json[..cut]) {
            assert!(
                serde_json::from_str::<T>(text).is_err(),
                "JSON cut at {cut}"
            );
        }
    }
    for cut in 0..bytes.len() {
        assert!(
            snapshot::decode::<T>(&bytes[..cut]).is_none(),
            "snapshot cut at {cut}"
        );
    }
    for at in 0..json.len() {
        for mask in [0x01, 0x80] {
            let mut flipped = json.to_vec();
            flipped[at] ^= mask;
            if let Ok(text) = std::str::from_utf8(&flipped) {
                let _ = serde_json::from_str::<T>(text);
            }
        }
    }
    for at in 0..bytes.len() {
        for mask in [0x01, 0x80] {
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            let _ = snapshot::decode::<T>(&flipped);
        }
    }
}

#[test]
fn truncated_or_flipped_artifacts_never_panic() {
    let report = report("hello-musl-static");
    let spec = loupe_plan::os::find("kerla").unwrap();
    sweep(&ConformanceSuite::generate(&spec, &report, None));
    sweep(&report);
}
