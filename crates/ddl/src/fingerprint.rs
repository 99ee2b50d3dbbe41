//! Stable 64-bit FNV-1a content hashes.
//!
//! [`Fnv1a`] hashes tagged, length-prefixed input; [`content_hash`] hashes
//! raw bytes. The values are **stable**: independent of process, platform
//! word order and pointer identity, so they can key memo entries, store
//! entries and corpus digests that outlive a run. The hash is not
//! cryptographic, but deterministic and dependency-free.

/// A finished [`Fnv1a`] hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

/// An incremental FNV-1a (64-bit) hasher over tagged, length-prefixed input.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Start a fresh hasher.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb a single tag byte (domain separator).
    pub fn tag(&mut self, t: u8) {
        self.write(&[t]);
    }

    /// Absorb a `u64` in a fixed byte order.
    pub fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    /// Absorb a length-prefixed string (prefixing prevents `"ab"+"c"` from
    /// aliasing `"a"+"bc"` across adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorb an optional length-prefixed string.
    pub fn write_opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.tag(1);
                self.write_str(s);
            }
            None => self.tag(0),
        }
    }

    /// Finish, producing the hash.
    pub fn finish(self) -> Fingerprint {
        Fingerprint(self.0)
    }
}

/// Hash arbitrary bytes (used for content-addressing raw DDL text).
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(bytes.len() as u64);
    h.write(bytes);
    h.finish().0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_boundaries_do_not_alias() {
        // Length prefixes: the concatenated bytes are identical, the
        // fields are not.
        let hash = |fields: &[&str]| {
            let mut h = Fnv1a::new();
            fields.iter().for_each(|f| h.write_str(f));
            h.finish()
        };
        assert_ne!(hash(&["ab", "c"]), hash(&["a", "bc"]));
        assert_ne!(hash(&["12", "3"]), hash(&["1", "23"]));
        assert_eq!(hash(&["ab", "c"]), hash(&["ab", "c"]));
    }

    #[test]
    fn known_value_is_stable_across_runs() {
        // Pins the byte-level definition: a change to the hashing scheme must
        // be deliberate (it invalidates any persisted content addresses).
        let fp = content_hash(b"CREATE TABLE t (a INT);");
        assert_eq!(fp, content_hash(b"CREATE TABLE t (a INT);"));
        assert_ne!(fp, content_hash(b"CREATE TABLE t (a INT); "));
    }
}
