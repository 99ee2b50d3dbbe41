//! The one name matcher of the diff: tables and columns are matched by
//! case-folded name ([`Ident::key`]), through an index of each side's keys.

use coevo_ddl::{Column, Ident, Table, TableConstraint};
use std::sync::Arc;

/// The keys of one side's tables or columns with their positions, sorted
/// by key, then by position; for columns, followed by the table's primary
/// key. One allocation (none for an empty side). A duplicated key resolves
/// to its *last* declaration, as a map filled in declaration order would.
pub(crate) struct NameIndex<'a> {
    keys: Box<[(&'a str, u32)]>,
    /// How many of `keys` are names; the rest are primary-key keys.
    names: usize,
}

impl<'a> NameIndex<'a> {
    /// The tables of a schema.
    pub(crate) fn of_tables(tables: &'a [Arc<Table>]) -> Self {
        Self::build(tables.iter().map(|t| t.key()), std::iter::empty())
    }

    /// The columns of `table`, with its primary key as
    /// [`Table::primary_key`] resolves it: the columns flagged inline
    /// `PRIMARY KEY`, then the columns every `PRIMARY KEY` constraint names
    /// (declared or not), borrowed.
    pub(crate) fn of_columns(table: &'a Table) -> Self {
        let inline = table.columns.iter().filter(|c| c.inline_primary_key).map(Column::key);
        let listed = table.constraints.iter().flat_map(|c| match c {
            TableConstraint::PrimaryKey { columns, .. } => columns.as_slice(),
            _ => &[],
        });
        Self::build(table.columns.iter().map(Column::key), inline.chain(listed.map(Ident::key)))
    }

    fn build(
        names: impl ExactSizeIterator<Item = &'a str>,
        primary_key: impl Iterator<Item = &'a str> + Clone,
    ) -> Self {
        let n = names.len();
        let mut keys = Vec::with_capacity(n + primary_key.clone().count());
        keys.extend(names.zip(0..));
        keys.extend(primary_key.map(|k| (k, u32::MAX)));
        keys[..n].sort_unstable();
        Self { keys: keys.into_boxed_slice(), names: n }
    }

    /// The last position whose key is `key`.
    pub(crate) fn get(&self, key: &str) -> Option<usize> {
        let sorted = &self.keys[..self.names];
        let end = sorted.partition_point(|&(k, _)| k <= key);
        let &(k, i) = sorted.get(end.wrapping_sub(1))?;
        (k == key).then_some(i as usize)
    }

    /// True when `key` is in the primary key of the indexed columns.
    pub(crate) fn in_primary_key(&self, key: &str) -> bool {
        self.keys[self.names..].iter().any(|&(k, _)| k == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_ddl::SqlType;

    fn table(inline: &[&str], plain: &[&str], constraints: Vec<TableConstraint>) -> Table {
        let mut t = Table::new("t");
        for (names, flag) in [(inline, true), (plain, false)] {
            for &name in names {
                let mut c = Column::new(name, SqlType::simple("INT"));
                c.inline_primary_key = flag;
                t.columns.push(c);
            }
        }
        t.constraints = constraints;
        t
    }

    fn pk(cols: &[&str]) -> TableConstraint {
        TableConstraint::PrimaryKey {
            name: None,
            columns: cols.iter().map(|&c| c.into()).collect(),
        }
    }

    #[test]
    fn duplicate_keys_resolve_to_the_last_declaration() {
        let t = table(&[], &["A", "b", "a", "B", "c"], vec![]);
        let index = NameIndex::of_columns(&t);
        assert_eq!(index.get("a"), Some(2));
        assert_eq!(index.get("b"), Some(3));
        assert_eq!(index.get("c"), Some(4));
        assert_eq!(index.get("d"), None);
        assert_eq!(index.get(""), None);
        assert_eq!(NameIndex::of_tables(&[]).get("a"), None);
    }

    #[test]
    fn primary_key_membership_is_the_resolved_primary_key() {
        let cases = [
            // Inline flags, then constraint columns.
            table(&["a"], &["b", "c"], vec![pk(&["B", "A"]), pk(&["c", "b"])]),
            // Two columns that fold alike, one flagged: both are in the key.
            table(&["x"], &["X", "y"], vec![]),
            // A name the table never declares.
            table(&["a"], &["b"], vec![pk(&["nope", "b", "NOPE"])]),
            table(&[], &["a"], vec![]),
        ];
        for t in cases {
            let expected = t.primary_key();
            let index = NameIndex::of_columns(&t);
            for key in t.columns.iter().map(Column::key).chain(["nope", "zz"]) {
                let want = expected.iter().any(|k| k == key);
                assert_eq!(index.in_primary_key(key), want, "{key} in {t:?}");
            }
        }
    }
}
