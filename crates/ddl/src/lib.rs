//! # coevo-ddl — SQL DDL substrate
//!
//! A from-scratch lexer, parser, and object model for the subset of SQL DDL
//! that appears in single-file relational schema definitions of FOSS projects
//! (the population studied by Vassiliadis et al., EDBT 2023): `CREATE TABLE`,
//! `ALTER TABLE`, `DROP TABLE`, `CREATE INDEX`, and enough statement-skipping
//! to survive full MySQL/PostgreSQL dump files (INSERTs, SETs, comments,
//! dollar-quoted function bodies, …).
//!
//! The paper's measurement unit is the *logical schema*: relations, their
//! typed attributes, and primary-key participation. The model here therefore
//! centers on [`Schema`], [`Table`], and [`Column`], with constraint detail
//! retained where it affects the evolution metrics (types and primary keys)
//! and tolerated-but-normalized elsewhere.
//!
//! ## Quickstart
//!
//! ```
//! use coevo_ddl::{parse_schema, Dialect};
//!
//! let sql = r#"
//!     CREATE TABLE users (
//!         id INT NOT NULL AUTO_INCREMENT,
//!         email VARCHAR(255) NOT NULL,
//!         PRIMARY KEY (id)
//!     );
//! "#;
//! let schema = parse_schema(sql, Dialect::MySql).unwrap();
//! assert_eq!(schema.tables.len(), 1);
//! let users = schema.table("users").unwrap();
//! assert_eq!(users.columns.len(), 2);
//! assert!(users.primary_key().contains(&"id".to_string()));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod apply;
pub mod cache;
pub mod dialect;
pub mod error;
pub mod fingerprint;
#[allow(unsafe_code)] // `Ident`'s one-allocation record.
pub mod intern;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod printer;
pub mod token;

pub use apply::apply_statements;
pub use cache::ParseCache;
pub use dialect::Dialect;
pub use error::{ParseError, ParseErrorKind, Result};
pub use intern::{Ident, Interner, Symbol};
pub use lexer::Lexer;
pub use model::{Column, ForeignKey, IndexDef, Schema, SqlType, Table, TableConstraint};
pub use parser::{parse_schema, parse_schema_interned, parse_statements, Parser, Statement};
pub use printer::print_schema;
