//! Symbol interning for identifiers on the cold path.
//!
//! Parsing a project's full DDL history touches the same identifiers over
//! and over — every version repeats most table, column, and type names. An
//! [`Interner`] deduplicates them: each distinct spelling is allocated once,
//! case-folded once, and assigned a small integer [`Symbol`] per distinct
//! *folded* form, so the diff hot loop can compare names as integers instead
//! of re-folding and comparing strings.
//!
//! ## Validity invariants
//!
//! - An [`Ident`] owns its text (`Arc<str>`) and stays valid forever — it
//!   does **not** borrow from the interner, so `Arc<Schema>` values outlive
//!   the per-parse interner that built them.
//! - A [`Symbol`] is only meaningful *relative to the interner that issued
//!   it*. Two idents compare by symbol exactly when both carry the same
//!   nonzero [`Ident::interner_id`]; interner ids are globally unique per
//!   process (never reused), so stale cross-interner comparisons cannot
//!   alias. Uninterned idents (hand-built or deserialized models) carry id 0
//!   and always fall back to string comparison.
//! - Within one interner, `a.symbol() == b.symbol()` ⇔ `a.key() == b.key()`
//!   (case-insensitive name equality).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a as a [`Hasher`]: identifiers are short (a handful of bytes), where
/// FNV beats SipHash by a wide margin, and interner lookups sit directly on
/// the per-token parse path. Collision quality is ample for identifier sets.
#[derive(Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// A small integer naming one distinct case-folded identifier spelling
/// within a single [`Interner`]. Only comparable between idents with equal
/// nonzero [`Ident::interner_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// Interner ids are process-global and start at 1; id 0 marks an uninterned
/// [`Ident`].
static NEXT_INTERNER_ID: AtomicU32 = AtomicU32::new(1);

#[derive(Default)]
struct InternerInner {
    /// Exact spelling → fully built ident (cloning is two `Arc` bumps).
    by_text: FnvMap<Arc<str>, Ident>,
    /// Case-folded spelling → its symbol.
    by_folded: FnvMap<Arc<str>, u32>,
}

/// A per-project identifier interner, shared read-mostly behind `Arc` by the
/// engine workers that parse a project's versions.
pub struct Interner {
    id: u32,
    inner: Mutex<InternerInner>,
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("id", &self.id)
            .field("symbols", &self.symbol_count())
            .finish()
    }
}

impl Interner {
    /// A fresh interner with a process-unique nonzero id.
    pub fn new() -> Self {
        Self {
            id: NEXT_INTERNER_ID.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::new(InternerInner::default()),
        }
    }

    /// This interner's process-unique id (always nonzero).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Intern `text`: the first occurrence of a spelling allocates and
    /// case-folds it; every later occurrence is two `Arc` clones.
    pub fn ident(&self, text: &str) -> Ident {
        let mut inner = self.inner.lock().expect("interner poisoned");
        if let Some(proto) = inner.by_text.get(text) {
            return proto.clone();
        }
        let text_arc: Arc<str> = Arc::from(text);
        let folded: Arc<str> = match fold(text) {
            Some(lower) => Arc::from(lower.as_str()),
            None => Arc::clone(&text_arc),
        };
        let sym = match inner.by_folded.get(&*folded) {
            Some(&s) => s,
            None => {
                let s = inner.by_folded.len() as u32;
                inner.by_folded.insert(Arc::clone(&folded), s);
                s
            }
        };
        let ident = Ident { text: Arc::clone(&text_arc), folded, iid: self.id, sym };
        inner.by_text.insert(text_arc, ident.clone());
        ident
    }

    /// Number of distinct case-folded spellings interned so far.
    pub fn symbol_count(&self) -> usize {
        self.inner.lock().expect("interner poisoned").by_folded.len()
    }
}

/// Lowercase `text` if it contains any ASCII uppercase; `None` when it is
/// already fully folded (the common case — folding then shares the text
/// allocation).
fn fold(text: &str) -> Option<String> {
    if text.bytes().any(|b| b.is_ascii_uppercase()) {
        Some(text.to_ascii_lowercase())
    } else {
        None
    }
}

/// An identifier: exact spelling plus its precomputed case-folded key and
/// (when interned) a per-interner [`Symbol`].
///
/// Equality, ordering, and hashing all follow the *exact* text, like the
/// `String` fields this type replaced; the folded key is exposed via
/// [`Ident::key`] for the case-insensitive comparisons SQL requires.
#[derive(Clone)]
pub struct Ident {
    text: Arc<str>,
    folded: Arc<str>,
    iid: u32,
    sym: u32,
}

impl Ident {
    /// An uninterned ident (interner id 0): used by hand-built models,
    /// deserialization, and parses without an interner.
    pub fn new(text: &str) -> Self {
        let text_arc: Arc<str> = Arc::from(text);
        let folded = match fold(text) {
            Some(lower) => Arc::from(lower.as_str()),
            None => Arc::clone(&text_arc),
        };
        Self { text: text_arc, folded, iid: 0, sym: 0 }
    }

    /// The exact spelling.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The case-folded comparison key, computed once at construction.
    pub fn key(&self) -> &str {
        &self.folded
    }

    /// The folded key's shared allocation (cheap to clone into seals).
    pub fn key_arc(&self) -> Arc<str> {
        Arc::clone(&self.folded)
    }

    /// This ident's symbol. Only meaningful against idents with the same
    /// nonzero [`Ident::interner_id`].
    pub fn symbol(&self) -> Symbol {
        Symbol(self.sym)
    }

    /// Id of the interner that issued this ident (0 = uninterned).
    pub fn interner_id(&self) -> u32 {
        self.iid
    }
}

impl Deref for Ident {
    type Target = str;

    fn deref(&self) -> &str {
        &self.text
    }
}

impl AsRef<str> for Ident {
    fn as_ref(&self) -> &str {
        &self.text
    }
}

impl Borrow<str> for Ident {
    fn borrow(&self) -> &str {
        &self.text
    }
}

impl From<&str> for Ident {
    fn from(text: &str) -> Self {
        Self::new(text)
    }
}

impl From<String> for Ident {
    fn from(text: String) -> Self {
        Self::new(&text)
    }
}

impl PartialEq for Ident {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.text, &other.text) || self.text == other.text
    }
}

impl Eq for Ident {}

impl PartialEq<str> for Ident {
    fn eq(&self, other: &str) -> bool {
        &*self.text == other
    }
}

impl PartialEq<&str> for Ident {
    fn eq(&self, other: &&str) -> bool {
        &*self.text == *other
    }
}

impl PartialEq<String> for Ident {
    fn eq(&self, other: &String) -> bool {
        &*self.text == other.as_str()
    }
}

impl PartialEq<Ident> for str {
    fn eq(&self, other: &Ident) -> bool {
        self == &*other.text
    }
}

impl PartialEq<Ident> for &str {
    fn eq(&self, other: &Ident) -> bool {
        *self == &*other.text
    }
}

impl PartialEq<Ident> for String {
    fn eq(&self, other: &Ident) -> bool {
        self.as_str() == &*other.text
    }
}

impl Hash for Ident {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash like the `String` this replaced, so `Borrow<str>` map lookups
        // stay consistent.
        (*self.text).hash(state);
    }
}

impl PartialOrd for Ident {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ident {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.text.cmp(&other.text)
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text, f)
    }
}

// Serialized as a plain string, exactly like the `String` fields this type
// replaced; deserialized idents are uninterned (id 0).
impl serde::Serialize for Ident {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.text.to_string())
    }
}

impl serde::Deserialize for Ident {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => Ok(Self::new(s)),
            other => Err(serde::Error::custom(format!("expected string ident, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes_spellings_and_shares_allocations() {
        let i = Interner::new();
        let a = i.ident("Users");
        let b = i.ident("Users");
        assert!(Arc::ptr_eq(&a.text, &b.text));
        assert!(Arc::ptr_eq(&a.folded, &b.folded));
        assert_eq!(a, b);
        assert_eq!(a.symbol(), b.symbol());
    }

    #[test]
    fn symbols_follow_the_folded_key() {
        let i = Interner::new();
        let a = i.ident("Users");
        let b = i.ident("users");
        let c = i.ident("USERS");
        let d = i.ident("orders");
        // Distinct spellings, one folded form, one symbol.
        assert_ne!(a, b);
        assert_eq!(a.key(), "users");
        assert_eq!(a.symbol(), b.symbol());
        assert_eq!(b.symbol(), c.symbol());
        assert_ne!(a.symbol(), d.symbol());
        assert_eq!(i.symbol_count(), 2);
    }

    #[test]
    fn lowercase_spellings_share_text_and_key_allocations() {
        let i = Interner::new();
        let a = i.ident("users");
        assert!(Arc::ptr_eq(&a.text, &a.folded));
        let b = Ident::new("users");
        assert!(Arc::ptr_eq(&b.text, &b.folded));
    }

    #[test]
    fn interner_ids_are_unique_and_nonzero() {
        let a = Interner::new();
        let b = Interner::new();
        assert_ne!(a.id(), 0);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.ident("x").interner_id(), a.id());
        assert_eq!(Ident::new("x").interner_id(), 0);
    }

    #[test]
    fn equality_and_ordering_track_exact_text() {
        let a = Ident::new("Users");
        let b = Interner::new().ident("Users");
        assert_eq!(a, b); // interning does not affect equality
        assert_eq!(a, "Users");
        assert_ne!(a, "users");
        assert_eq!("Users", a);
        assert_eq!(a, "Users".to_string());
        assert!(Ident::new("a") < Ident::new("b"));
    }

    #[test]
    fn hash_matches_str_hash() {
        use std::collections::hash_map::DefaultHasher;
        fn h<T: Hash + ?Sized>(v: &T) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Ident::new("Users")), h("Users"));
    }

    #[test]
    fn display_and_deref() {
        let a = Ident::new("Users");
        assert_eq!(a.to_string(), "Users");
        assert_eq!(a.len(), 5); // str method via Deref
        assert!(a.eq_ignore_ascii_case("USERS"));
        assert_eq!(format!("{a:?}"), "\"Users\"");
    }

    #[test]
    fn serde_round_trips_as_plain_string() {
        use serde::{Deserialize, Serialize};
        let a = Interner::new().ident("Users");
        let v = a.to_value();
        assert_eq!(v, serde::Value::Str("Users".to_string()));
        let back = Ident::from_value(&v).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.interner_id(), 0);
        assert!(Ident::from_value(&serde::Value::Int(3)).is_err());
    }
}
