//! Compatibility pins: the serialised form of syscall sets and the
//! fingerprints stored artifacts are keyed by.
//!
//! Every cache entry in a sweep database records the fingerprints of its
//! inputs, and fingerprints hash the serialised value tree. A change to
//! how `SysnoSet`, `OsSpec` or `AppRequirement` serialise would silently
//! turn every user's database stale, so these values are pinned. Update
//! them only together with a deliberate on-disk format change.

use loupe_core::fingerprint_of;
use loupe_plan::{os, AppRequirement};
use loupe_syscalls::{SubFeatureKey, Sysno, SysnoSet};

fn set(names: &[&str]) -> SysnoSet {
    names
        .iter()
        .map(|n| Sysno::from_name(n).expect("known syscall"))
        .collect()
}

fn key(s: &str) -> SubFeatureKey {
    SubFeatureKey::parse(s).expect("known sub-feature")
}

#[test]
fn sysno_set_json_text_is_pinned() {
    let s = set(&[
        "process_mrelease",
        "futex",
        "read",
        "openat",
        "mmap",
        "rseq",
    ]);
    assert_eq!(serde_json::to_string(&s).unwrap(), "[0,9,202,257,334,448]");
    assert_eq!(serde_json::to_string(&SysnoSet::new()).unwrap(), "[]");
}

#[test]
fn kerla_spec_fingerprint_is_pinned() {
    let kerla = os::find("kerla").expect("curated");
    assert_eq!(
        fingerprint_of(&kerla).to_hex(),
        "f7b592887aece2ca4515224a403d945a"
    );
}

#[test]
fn app_requirement_fingerprint_is_pinned() {
    let req = AppRequirement {
        app: "nginx".into(),
        required: set(&["read", "write", "openat", "epoll_wait", "accept4"]),
        stubbable: set(&["sysinfo", "prctl"]),
        fake_only: set(&["setgroups"]),
        traced: set(&[
            "read",
            "write",
            "openat",
            "epoll_wait",
            "accept4",
            "sysinfo",
            "prctl",
            "setgroups",
            "fcntl",
        ]),
        required_flags: vec![key("fcntl:F_SETFL")],
        stubbable_flags: vec![key("prctl:PR_SET_KEEPCAPS")],
        fake_only_flags: vec![key("ioctl:0x5423")],
    };
    assert_eq!(
        fingerprint_of(&req).to_hex(),
        "0ab4d4ab30a1e89250a4c66349aa1267"
    );
}
