//! A small sorted-vector map for per-station tables.
//!
//! Every station keeps a handful of per-neighbour tables — the needed
//! power levels, the handshake's sent and received tables, the route
//! table, the flood cache — each holding one to a few dozen entries. A
//! `HashMap` pays a 48-byte header and a power-of-two bucket array with
//! control bytes for each of them; [`VecMap`] is one vector of
//! `(key, value)` pairs kept in key order: 24 bytes inline, looked up by
//! binary search, grown one slot at a time, so a table allocates the
//! most entries it has held at once and nothing more (a removal keeps
//! its slot for the next insert). Iteration is in key order, which is
//! also the order its checkpoint codec writes — the same bytes a
//! `HashMap` of the same content writes.

/// A map from `K` to `V` stored as key-ordered pairs in one vector.
#[derive(Debug, Clone, PartialEq)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> VecMap<K, V> {
    /// An empty map; allocates nothing.
    pub const fn new() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }

    /// Where `key` is, or where it would go.
    #[inline]
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Put `(key, value)` at slot `at`, growing the vector by exactly
    /// one slot when it is full.
    fn insert_at(&mut self, at: usize, key: K, value: V) {
        self.entries.reserve_exact(1);
        self.entries.insert(at, (key, value));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value under `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value under `key`, mutably.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// `true` if `key` has a value.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Set `key`'s value, returning the one it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.insert_at(i, key, value);
                None
            }
        }
    }

    /// The value under `key`, inserting `make()` first if there is none.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.find(&key) {
            Ok(i) => i,
            Err(i) => {
                self.insert_at(i, key, make());
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Take `key`'s value out of the map.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.find(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// Keep only the entries for which `keep` returns `true`.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }

    /// The entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// The entries in key order, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Slots allocated (never fewer than [`VecMap::len`]).
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }
}

mod snap {
    //! The codec writes what the `HashMap` codec writes for the same
    //! content: the entry count, then the pairs in key order. Load takes
    //! only strictly increasing keys, so a map is read back in one pass
    //! and exactly sized.

    use super::VecMap;
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl<K: Snap + Ord + Copy, V: Snap> Snap for VecMap<K, V> {
        fn save(&self, w: &mut SnapWriter) {
            w.u64(self.entries.len() as u64);
            for (k, v) in &self.entries {
                k.save(w);
                v.save(w);
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let n = r.len_prefix()?;
            let mut entries: Vec<(K, V)> = Vec::with_capacity(n);
            for _ in 0..n {
                let k = K::load(r)?;
                match entries.last() {
                    Some((last, _)) if *last == k => {
                        return Err(SnapError::Corrupt("duplicate map key"))
                    }
                    Some((last, _)) if *last > k => {
                        return Err(SnapError::Corrupt("map keys out of order"))
                    }
                    _ => {}
                }
                entries.push((k, V::load(r)?));
            }
            Ok(VecMap { entries })
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    fn bytes(v: &impl Snap) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        w.payload().to_vec()
    }

    /// A table keyed like the flood cache.
    type Table = VecMap<(u32, u32), u64>;

    fn load(b: &[u8]) -> Result<Table, SnapError> {
        VecMap::load(&mut SnapReader::over(b))
    }

    /// A table, and a hash map of the same content, filled out of order.
    fn table() -> (Table, HashMap<(u32, u32), u64>) {
        let mut v = VecMap::new();
        let mut h = HashMap::new();
        for i in [7u32, 3, 11, 3, 0, 19, 5] {
            for j in [2u32, 1] {
                let val = u64::from(i) * 1_000 + u64::from(j);
                v.insert((i, j), val);
                h.insert((i, j), val);
            }
        }
        (v, h)
    }

    #[test]
    fn a_table_holds_its_entries_and_nothing_more() {
        let (v, _) = table();
        assert_eq!(v.len(), 12);
        assert_eq!(v.capacity(), 12, "grown one slot at a time");
        let keys: Vec<_> = v.iter().map(|(k, _)| *k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        assert_eq!(std::mem::size_of::<VecMap<u32, u64>>(), 24);
    }

    #[test]
    fn codec_writes_the_hashmap_codec_bytes() {
        let (v, h) = table();
        assert_eq!(bytes(&v), bytes(&h));
        assert_eq!(load(&bytes(&h)), Ok(v.clone()));
        let back = load(&bytes(&v)).expect("a written table loads");
        assert_eq!(back.capacity(), back.len(), "loaded exactly sized");
        let empty = Table::new();
        assert_eq!(bytes(&empty), bytes(&HashMap::<(u32, u32), u64>::new()));
    }

    #[test]
    fn load_refuses_unsorted_or_duplicate_keys() {
        let write = |pairs: &[((u32, u32), u64)]| {
            let mut w = SnapWriter::new();
            w.u64(pairs.len() as u64);
            for (k, v) in pairs {
                k.save(&mut w);
                v.save(&mut w);
            }
            w.payload().to_vec()
        };
        assert!(load(&write(&[((1, 0), 5), ((1, 1), 6), ((2, 0), 7)])).is_ok());
        assert_eq!(
            load(&write(&[((1, 0), 5), ((2, 0), 6), ((1, 1), 7)])),
            Err(SnapError::Corrupt("map keys out of order"))
        );
        assert_eq!(
            load(&write(&[((1, 0), 5), ((2, 0), 6), ((2, 0), 7)])),
            Err(SnapError::Corrupt("duplicate map key"))
        );
    }
}
