//! Symbol interning for identifiers on the cold path.
//!
//! Parsing a project's full DDL history touches the same identifiers over
//! and over — every version repeats most table, column, and type names. An
//! [`Interner`] deduplicates them: each distinct spelling is allocated once
//! and case-folded once, and every version shares that one record, so a
//! warm interner allocates no names at all. Each distinct *folded* form
//! also gets a small integer [`Symbol`].
//!
//! ## Validity invariants
//!
//! - An [`Ident`] is one pointer to a shared, immutable, reference-counted
//!   record of its exact text, folded key, interner id and symbol, all in
//!   one allocation. It stays valid forever — it does **not** borrow from
//!   the interner, so `Arc<Schema>` values outlive the per-parse interner
//!   that built them. Every ident an interner hands out for one spelling
//!   points at the same record, so a clone is one reference-count increment.
//! - A [`Symbol`] is only meaningful *relative to the interner that issued
//!   it*. Two idents compare by symbol exactly when both carry the same
//!   nonzero [`Ident::interner_id`]; interner ids are globally unique per
//!   process (never reused), so stale cross-interner comparisons cannot
//!   alias. Uninterned idents (hand-built or deserialized models) carry id 0.
//!   Name matching (the diff, every `Schema`/`Table` lookup) compares folded
//!   keys, which mean the same under every interner.
//! - Within one interner, `a.symbol() == b.symbol()` ⇔ `a.key() == b.key()`
//!   (case-insensitive name equality).

use crate::parser::Scratch;
use std::alloc::{self, Layout};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{self, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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

type FnvSet<T> = HashSet<T, BuildHasherDefault<FnvHasher>>;

/// A small integer naming one distinct case-folded identifier spelling
/// within a single [`Interner`]. Only comparable between idents with equal
/// nonzero [`Ident::interner_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// Interner ids are process-global and start at 1; id 0 marks an uninterned
/// [`Ident`].
static NEXT_INTERNER_ID: AtomicU32 = AtomicU32::new(1);

/// An ident keyed by its folded key: hashes, compares and borrows as
/// [`Ident::key`], so a map over folded names needs no key string of its
/// own.
pub(crate) struct FoldKey(pub(crate) Ident);

impl PartialEq for FoldKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}

impl Eq for FoldKey {}

impl Hash for FoldKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.key().hash(state);
    }
}

impl Borrow<str> for FoldKey {
    fn borrow(&self) -> &str {
        self.0.key()
    }
}

#[derive(Default)]
struct InternerInner {
    /// Every distinct exact spelling, found by its text.
    by_text: FnvSet<Ident>,
    /// The first ident of every distinct folded spelling, found by its
    /// key; it carries the spelling's symbol.
    by_folded: FnvSet<FoldKey>,
    /// The parse buffers of whoever holds the interner: a project's
    /// versions are parsed one after another, so they share one set.
    scratch: Scratch,
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
    /// case-folds it; every later occurrence is one reference count.
    pub fn ident(&self, text: &str) -> Ident {
        self.lock().ident(text)
    }

    /// Number of distinct case-folded spellings interned so far.
    pub fn symbol_count(&self) -> usize {
        self.lock().inner.by_folded.len()
    }

    /// Hold the interner for a run of [`Interning::ident`] calls, such as
    /// one whole parse. The maps are consistent between calls, so a holder
    /// that panicked leaves nothing half-done behind it.
    pub(crate) fn lock(&self) -> Interning<'_> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        Interning { id: self.id, inner }
    }
}

/// An [`Interner`] held by one thread: interning through it takes no lock
/// per identifier.
pub(crate) struct Interning<'i> {
    id: u32,
    inner: MutexGuard<'i, InternerInner>,
}

impl Interning<'_> {
    /// See [`Interner::ident`].
    pub(crate) fn ident(&mut self, text: &str) -> Ident {
        if let Some(ident) = self.inner.by_text.get(text) {
            return ident.clone();
        }
        let mut ident = Ident::alloc(text, self.id);
        let by_folded = &mut self.inner.by_folded;
        let known = by_folded.get(ident.key()).map(|first| first.0.symbol().0);
        ident.set_symbol(known.unwrap_or(by_folded.len() as u32));
        if known.is_none() {
            by_folded.insert(FoldKey(ident.clone()));
        }
        self.inner.by_text.insert(ident.clone());
        ident
    }

    /// The parse buffers kept with the interner, emptied.
    pub(crate) fn take_scratch(&mut self) -> Scratch {
        let mut s = std::mem::take(&mut self.inner.scratch);
        s.clear();
        s
    }

    /// Keep `scratch` with the interner for its next parse.
    pub(crate) fn put_scratch(&mut self, scratch: Scratch) {
        self.inner.scratch = scratch;
    }
}

/// The start of an ident's allocation. The exact text follows it, then,
/// when folding changes the text, the case-folded key (ASCII folding keeps
/// the length).
#[repr(C)]
struct Header {
    refs: AtomicUsize,
    /// Byte length of the exact text.
    len: usize,
    /// The folded key follows the text (else the text is its own key).
    folded: bool,
    iid: u32,
    sym: u32,
}

impl Header {
    /// The layout of an allocation holding `bytes` bytes after the header;
    /// they start at offset `size_of::<Header>()`.
    fn layout(bytes: usize) -> Layout {
        let (layout, _) = Layout::new::<Self>()
            .extend(Layout::array::<u8>(bytes).expect("identifier length overflow"))
            .expect("identifier length overflow");
        layout.pad_to_align()
    }

    fn bytes(&self) -> usize {
        if self.folded {
            2 * self.len
        } else {
            self.len
        }
    }
}

/// An identifier: exact spelling plus its precomputed case-folded key and
/// (when interned) a per-interner [`Symbol`], behind one pointer.
///
/// Equality, ordering, and hashing all follow the *exact* text, like the
/// `String` fields this type replaced; the folded key is exposed via
/// [`Ident::key`] for the case-insensitive comparisons SQL requires. A new
/// ident is one allocation; a clone is a reference-count increment.
pub struct Ident(NonNull<Header>);

// SAFETY: the record is immutable once shared and its count is atomic, as
// in `Arc<str>`.
unsafe impl Send for Ident {}
// SAFETY: as above.
unsafe impl Sync for Ident {}

impl Ident {
    /// A new record for `text` under interner id `iid`, symbol 0.
    fn alloc(text: &str, iid: u32) -> Self {
        let folded = text.bytes().any(|b| b.is_ascii_uppercase());
        let header = Header { refs: AtomicUsize::new(1), len: text.len(), folded, iid, sym: 0 };
        let layout = Header::layout(header.bytes());
        // SAFETY: the layout is nonzero-sized (it holds a header).
        let Some(ptr) = NonNull::new(unsafe { alloc::alloc(layout) }.cast::<Header>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: the allocation holds the header and then `header.bytes()`
        // bytes, which the writes below fill exactly.
        unsafe {
            ptr.as_ptr().write(header);
            let bytes = ptr.as_ptr().add(1).cast::<u8>();
            bytes.copy_from_nonoverlapping(text.as_ptr(), text.len());
            if folded {
                for (i, b) in text.bytes().enumerate() {
                    bytes.add(text.len() + i).write(b.to_ascii_lowercase());
                }
            }
        }
        Self(ptr)
    }

    /// Set the symbol of a record nothing else points at yet.
    fn set_symbol(&mut self, sym: u32) {
        debug_assert_eq!(self.header().refs.load(Ordering::Relaxed), 1);
        // SAFETY: this ident is the record's only reference, and it is
        // borrowed mutably.
        unsafe { (*self.0.as_ptr()).sym = sym }
    }

    fn header(&self) -> &Header {
        // SAFETY: the record lives as long as any ident points at it.
        unsafe { self.0.as_ref() }
    }

    /// `len` bytes of the record's text area from byte `at`, as text.
    fn text_at(&self, at: usize, len: usize) -> &str {
        // SAFETY: `at + len` is within the bytes `alloc` wrote: the exact
        // text, or its ASCII-lowercased copy, both valid UTF-8.
        unsafe {
            let bytes = self.0.as_ptr().add(1).cast::<u8>().add(at);
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(bytes, len))
        }
    }

    /// An uninterned ident (interner id 0): used by hand-built models,
    /// deserialization, and parses without an interner.
    pub fn new(text: &str) -> Self {
        Self::alloc(text, 0)
    }

    /// The exact spelling.
    pub fn as_str(&self) -> &str {
        self.text_at(0, self.header().len)
    }

    /// The case-folded comparison key, computed once at construction.
    pub fn key(&self) -> &str {
        let h = self.header();
        self.text_at(if h.folded { h.len } else { 0 }, h.len)
    }

    /// This ident's symbol. Only meaningful against idents with the same
    /// nonzero [`Ident::interner_id`].
    pub fn symbol(&self) -> Symbol {
        Symbol(self.header().sym)
    }

    /// Id of the interner that issued this ident (0 = uninterned).
    pub fn interner_id(&self) -> u32 {
        self.header().iid
    }
}

impl Clone for Ident {
    fn clone(&self) -> Self {
        // Relaxed, as in `Arc::clone`: a new reference can only be made
        // from an existing one.
        let old = self.header().refs.fetch_add(1, Ordering::Relaxed);
        if old > isize::MAX as usize {
            std::process::abort();
        }
        Self(self.0)
    }
}

impl Drop for Ident {
    fn drop(&mut self) {
        if self.header().refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        atomic::fence(Ordering::Acquire);
        let layout = Header::layout(self.header().bytes());
        // SAFETY: this was the last reference; the record was allocated
        // with this layout.
        unsafe { alloc::dealloc(self.0.as_ptr().cast(), layout) }
    }
}

impl Deref for Ident {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Ident {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Ident {
    fn borrow(&self) -> &str {
        self.as_str()
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
        self.0 == other.0 || self.as_str() == other.as_str()
    }
}

impl Eq for Ident {}

impl PartialEq<str> for Ident {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Ident {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Ident {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Ident> for str {
    fn eq(&self, other: &Ident) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Ident> for &str {
    fn eq(&self, other: &Ident) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Ident> for String {
    fn eq(&self, other: &Ident) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Hash for Ident {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash like the `String` this replaced, so `Borrow<str>` map lookups
        // stay consistent.
        self.as_str().hash(state);
    }
}

impl PartialOrd for Ident {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ident {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

// Serialized as a plain string, exactly like the `String` fields this type
// replaced; deserialized idents are uninterned (id 0).
impl serde::Serialize for Ident {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
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
        assert_eq!(a.0, b.0);
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
        assert!(std::ptr::eq(a.as_str(), a.key()));
        let b = Ident::new("users");
        assert!(std::ptr::eq(b.as_str(), b.key()));
        let c = Ident::new("Users");
        assert_eq!((c.as_str(), c.key()), ("Users", "users"));
    }

    #[test]
    fn an_ident_is_one_pointer() {
        assert_eq!(std::mem::size_of::<Ident>(), 8);
        assert_eq!(std::mem::size_of::<Option<Ident>>(), 8);
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
