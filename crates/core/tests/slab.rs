//! Model-based property test for [`Slab`]: random insert / remove / get
//! sequences run against the slab and against a reference map from every
//! key ever minted to its value while live. Live keys resolve to their
//! values, a removed key never resolves again (even once its slot holds a
//! newer value), removing it again returns nothing, and `len` agrees.

use std::collections::HashMap;

use oneshot_core::{Key, Slab};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32),
    /// Remove the `n`-th key ever minted (modulo their count), live or not.
    Remove(usize),
    /// Look up the `n`-th key ever minted.
    Get(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<u32>().prop_map(Op::Insert),
        2 => (0usize..64).prop_map(Op::Remove),
        2 => (0usize..64).prop_map(Op::Get),
    ]
}

fn run(ops: Vec<Op>) {
    let mut slab = Slab::new();
    // Every key minted, in order; the model maps the live ones to values.
    let mut minted: Vec<Key> = Vec::new();
    let mut model: HashMap<Key, u32> = HashMap::new();
    for op in ops {
        match op {
            Op::Insert(v) => {
                let k = slab.insert(v);
                assert!(!minted.contains(&k), "key {k:?} minted twice");
                minted.push(k);
                model.insert(k, v);
            }
            Op::Remove(n) if !minted.is_empty() => {
                let k = minted[n % minted.len()];
                assert_eq!(slab.remove(k), model.remove(&k), "remove {k:?}");
            }
            Op::Get(n) if !minted.is_empty() => {
                let k = minted[n % minted.len()];
                assert_eq!(slab.get(k), model.get(&k), "get {k:?}");
                assert_eq!(slab.contains(k), model.contains_key(&k));
            }
            Op::Remove(_) | Op::Get(_) => {}
        }
        assert_eq!(slab.len(), model.len());
        assert_eq!(slab.is_empty(), model.is_empty());
    }
    // The walk sees exactly the live keys, each with its value.
    let mut live: Vec<(Key, u32)> = slab.iter().map(|(k, &v)| (k, v)).collect();
    let mut expected: Vec<(Key, u32)> = model.into_iter().collect();
    live.sort();
    expected.sort();
    assert_eq!(live, expected);
    for (k, _) in &live {
        assert_eq!(slab.key_at(k.index()), Some(*k));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn slab_matches_a_map_of_every_key_ever_minted(
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        run(ops);
    }
}
