//! Property tests for the syscall-metadata substrate.

use std::collections::BTreeSet;

use loupe_syscalls::nr::TABLE;
use loupe_syscalls::{Category, PseudoFile, PseudoFileClass, SubFeature, Sysno, SysnoSet};
use proptest::prelude::*;

/// Syscalls on either side of the bitmap's 64-bit word boundaries, plus
/// the table's ends: a small pool so random op sequences revisit the
/// same members and build up subsets.
const POOL: &[u32] = &[
    0, 1, 63, 64, 127, 128, 191, 192, 255, 256, 319, 320, 334, 424, 447, 448,
];

/// One step of the model-based bitmap test.
#[derive(Debug, Clone, Copy)]
enum Op {
    InsertA(Sysno),
    InsertB(Sysno),
    RemoveA(Sysno),
    RemoveB(Sysno),
    UnionIntoB,
    IntersectIntoA,
    SubtractFromA,
}

/// Decodes one random word into an op: the kind, whether the operand
/// comes from [`POOL`] or the whole table, and the operand's index.
fn op(word: u64) -> Op {
    let (kind, pooled, idx) = ((word & 0xff) % 7, word >> 8 & 1 == 1, (word >> 9) as usize);
    let raw = if pooled {
        POOL[idx % POOL.len()]
    } else {
        TABLE[idx % TABLE.len()].0
    };
    let s = Sysno::from_raw(raw).expect("table number");
    match kind {
        0 => Op::InsertA(s),
        1 => Op::InsertB(s),
        2 => Op::RemoveA(s),
        3 => Op::RemoveB(s),
        4 => Op::UnionIntoB,
        5 => Op::IntersectIntoA,
        _ => Op::SubtractFromA,
    }
}

/// Checks every query of the bitmap against the `BTreeSet` model.
fn assert_agrees(set: &SysnoSet, model: &BTreeSet<Sysno>) {
    assert_eq!(set.len(), model.len());
    assert_eq!(set.is_empty(), model.is_empty());
    assert!(set.iter().eq(model.iter().copied()), "iteration order");
    assert!(
        set.into_iter().eq(model.iter().copied()),
        "borrowed into_iter"
    );
    for &raw in POOL {
        let s = Sysno::from_raw(raw).unwrap();
        assert_eq!(set.contains(s), model.contains(&s), "{s}");
    }
    let json = serde_json::to_string(set).unwrap();
    assert_eq!(
        json,
        serde_json::to_string(model).unwrap(),
        "serialised form"
    );
    assert_eq!(&serde_json::from_str::<SysnoSet>(&json).unwrap(), set);
}

proptest! {
    #[test]
    fn category_is_total_and_stable(raw in 0u32..460) {
        if let Some(s) = Sysno::from_raw(raw) {
            let c1 = Category::of(s);
            let c2 = Category::of(s);
            prop_assert_eq!(c1, c2);
        }
    }

    #[test]
    fn pseudo_canonicalisation_is_idempotent(pid in 1u32..1_000_000, tail in "[a-z]{1,8}") {
        let path = format!("/proc/{pid}/{tail}");
        let once = PseudoFile::canonicalize(&path).unwrap();
        let twice = PseudoFile::canonicalize(once.path()).unwrap();
        prop_assert_eq!(once.path(), twice.path());
        prop_assert_eq!(once.class(), PseudoFileClass::Proc);
        prop_assert!(once.path().starts_with("/proc/self/"));
    }

    #[test]
    fn non_pseudo_paths_never_canonicalise(tail in "[a-z]{1,12}") {
        for prefix in ["/etc", "/home", "/var", "/srv", "/opt"] {
            let path = format!("{prefix}/{tail}");
            prop_assert!(PseudoFile::canonicalize(&path).is_none(), "{}", path);
        }
    }

    #[test]
    fn sub_feature_lookup_is_injective(idx in 0..SubFeature::ALL.len()) {
        let sf = SubFeature::ALL[idx];
        let found = SubFeature::from_parts(sf.sysno(), sf.raw());
        prop_assert_eq!(found, Some(sf));
        // Display form is always "<syscall>:<NAME>".
        let display = sf.to_string();
        prop_assert!(display.starts_with(sf.sysno().name()));
        prop_assert!(display.ends_with(sf.name()));
    }

    #[test]
    fn sub_feature_keys_round_trip_selectors(idx in 0..SubFeature::ALL.len(), noise in 0u64..u64::MAX) {
        let sf = SubFeature::ALL[idx];
        let key = sf.key();
        prop_assert_eq!(key.selector_name(), Some(sf.name()));
        // Unknown selectors never alias a known name.
        let unknown = loupe_syscalls::SubFeatureKey::new(sf.sysno(), noise);
        if unknown.selector_name().is_some() {
            // Then the noise value must be a real selector of this syscall.
            prop_assert!(SubFeature::ALL.iter().any(|s| s.sysno() == sf.sysno() && s.raw() == noise));
        }
    }

    #[test]
    fn sysno_set_bitmap_agrees_with_btree_model(
        ops in proptest::collection::vec(
            (0u64..u64::MAX).prop_map(op),
            0..96,
        ),
    ) {
        let (mut a, mut b) = (SysnoSet::new(), SysnoSet::new());
        let (mut ma, mut mb) = (BTreeSet::new(), BTreeSet::new());
        for op in ops {
            match op {
                Op::InsertA(s) => prop_assert_eq!(a.insert(s), ma.insert(s)),
                Op::InsertB(s) => prop_assert_eq!(b.insert(s), mb.insert(s)),
                Op::RemoveA(s) => prop_assert_eq!(a.remove(s), ma.remove(&s)),
                Op::RemoveB(s) => prop_assert_eq!(b.remove(s), mb.remove(&s)),
                Op::UnionIntoB => {
                    b = b.union(&a);
                    mb = mb.union(&ma).copied().collect();
                }
                Op::IntersectIntoA => {
                    a = a.intersection(&b);
                    ma = ma.intersection(&mb).copied().collect();
                }
                Op::SubtractFromA => {
                    a = a.difference(&b);
                    ma = ma.difference(&mb).copied().collect();
                }
            }
            prop_assert_eq!(a.is_subset(&b), ma.is_subset(&mb));
            prop_assert_eq!(b.is_subset(&a), mb.is_subset(&ma));
        }
        assert_agrees(&a, &ma);
        assert_agrees(&b, &mb);
        let union: BTreeSet<Sysno> = ma.union(&mb).copied().collect();
        let inter: BTreeSet<Sysno> = ma.intersection(&mb).copied().collect();
        let diff: BTreeSet<Sysno> = ma.difference(&mb).copied().collect();
        assert_agrees(&a.union(&b), &union);
        assert_agrees(&a.intersection(&b), &inter);
        assert_agrees(&a.difference(&b), &diff);
        assert_agrees(&a.clone().into_iter().collect(), &ma);
    }

    #[test]
    fn allocating_categories_match_fd_and_memory_calls(raw in 0u32..460) {
        if let Some(s) = Sysno::from_raw(raw) {
            // Spot invariant: the syscalls the paper says can "almost
            // never" be avoided because they allocate resources are in
            // allocating categories.
            if matches!(s, Sysno::mmap | Sysno::openat | Sysno::socket | Sysno::pipe2 | Sysno::epoll_create1) {
                prop_assert!(Category::of(s).allocates_resources());
            }
        }
    }
}
