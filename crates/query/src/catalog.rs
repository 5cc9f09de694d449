//! Relations with textual attributes.
//!
//! The multidatabase setting of the paper: global relations (after schema
//! integration) have ordinary typed columns plus columns of type *text*,
//! each of which is backed by a document collection in a local IR system —
//! with an inverted file and B+tree, per section 3's assumption. All text
//! columns are ingested through one shared [`TermRegistry`], realising the
//! *standard term-number mapping* the paper recommends so that documents
//! from different relations are directly comparable.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use textjoin_collection::{Collection, TermRegistry};
use textjoin_common::{Error, Result};
use textjoin_invfile::{FnlIndex, InvertedFile};
use textjoin_storage::DiskSim;

/// Column types of the extended relational model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnType {
    /// Character data compared lexicographically.
    Str,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Textual attribute: the column's values form a document collection.
    Text,
}

/// A cell value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// The raw text of a textual attribute (also ingested into the
    /// column's document collection).
    Text(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(t) => {
                // Texts can be long; display a prefix.
                if t.len() > 40 {
                    write!(f, "{}…", &t[..40])
                } else {
                    write!(f, "{t}")
                }
            }
        }
    }
}

impl Value {
    fn type_of(&self) -> ColumnType {
        match self {
            Value::Str(_) => ColumnType::Str,
            Value::Int(_) => ColumnType::Int,
            Value::Float(_) => ColumnType::Float,
            Value::Text(_) => ColumnType::Text,
        }
    }
}

/// A text column's storage: the document collection plus its inverted file.
pub struct TextColumn {
    /// The documents (one per row, document number = row number).
    pub collection: Collection,
    /// The inverted file with its B+tree.
    pub inverted: InvertedFile,
    /// The rarity-ranked signature index (term-order sidecar + per-document
    /// signatures) that backs the FNL filter family. Built alongside the
    /// inverted file at registration time; covers the base collection only —
    /// delta-overlay documents are rescored exactly at probe time.
    pub fnl: FnlIndex,
}

/// A relation: schema, rows, and per-text-column document storage.
pub struct Relation {
    name: String,
    columns: Vec<(String, ColumnType)>,
    rows: Vec<Vec<Value>>,
    text: HashMap<String, TextColumn>,
}

impl Relation {
    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn columns(&self) -> &[(String, ColumnType)] {
        &self.columns
    }

    /// Index of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|(n, _)| n.eq_ignore_ascii_case(name))
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// A cell value.
    pub fn value(&self, row: usize, column: usize) -> &Value {
        &self.rows[row][column]
    }

    /// A whole row.
    pub fn row(&self, row: usize) -> &[Value] {
        &self.rows[row]
    }

    /// The storage behind a text column.
    pub fn text_column(&self, name: &str) -> Option<&TextColumn> {
        // Normalize to the declared column name's case.
        let idx = self.column_index(name)?;
        self.text.get(&self.columns[idx].0)
    }
}

/// Builds a relation row by row before it is registered with the catalog.
pub struct RelationBuilder {
    name: String,
    columns: Vec<(String, ColumnType)>,
    rows: Vec<Vec<Value>>,
}

impl RelationBuilder {
    /// Starts a relation.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Declares a column.
    pub fn column(mut self, name: &str, ty: ColumnType) -> Self {
        self.columns.push((name.to_string(), ty));
        self
    }

    /// Appends a row; values must match the declared schema.
    pub fn row(mut self, values: Vec<Value>) -> Result<Self> {
        if values.len() != self.columns.len() {
            return Err(Error::Plan(format!(
                "relation {}: row has {} values, schema has {} columns",
                self.name,
                values.len(),
                self.columns.len()
            )));
        }
        for (v, (name, ty)) in values.iter().zip(&self.columns) {
            if v.type_of() != *ty {
                return Err(Error::Plan(format!(
                    "relation {}: column {name} expects {ty:?}, got {:?}",
                    self.name,
                    v.type_of()
                )));
            }
        }
        self.rows.push(values);
        Ok(self)
    }
}

/// The catalog: named relations over one simulated disk, sharing one term
/// registry.
pub struct Catalog {
    disk: Arc<DiskSim>,
    registry: TermRegistry,
    relations: HashMap<String, Relation>,
}

impl Catalog {
    /// An empty catalog on `disk`.
    pub fn new(disk: Arc<DiskSim>) -> Self {
        Self {
            disk,
            registry: TermRegistry::new(),
            relations: HashMap::new(),
        }
    }

    /// The shared standard term-number mapping.
    pub fn registry(&self) -> &TermRegistry {
        &self.registry
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Arc<DiskSim> {
        &self.disk
    }

    /// Registers a relation: each text column's values are tokenized
    /// through the shared registry, written as a document collection, and
    /// indexed with an inverted file + B+tree.
    ///
    /// Relation and column names are looked up ignoring ASCII case, so a
    /// relation whose name matches an existing one that way, or that
    /// declares two such columns, is refused before anything is ingested.
    pub fn add(&mut self, builder: RelationBuilder) -> Result<()> {
        let RelationBuilder {
            name,
            columns,
            rows,
        } = builder;
        if let Some(existing) = self.relation(&name) {
            return Err(Error::Plan(format!(
                "relation {name} already exists as {}",
                existing.name
            )));
        }
        for (i, (col, _)) in columns.iter().enumerate() {
            if let Some((dup, _)) = columns[..i]
                .iter()
                .find(|(c, _)| c.eq_ignore_ascii_case(col))
            {
                return Err(Error::Plan(format!(
                    "relation {name}: column {col} clashes with column {dup}"
                )));
            }
        }
        let mut text = HashMap::new();
        for (ci, (col_name, ty)) in columns.iter().enumerate() {
            if *ty != ColumnType::Text {
                continue;
            }
            let docs: Vec<_> = rows
                .iter()
                .map(|r| match &r[ci] {
                    Value::Text(t) => self.registry.ingest(t),
                    _ => unreachable!("schema enforced at row()"),
                })
                .collect();
            let cname = format!("{name}.{col_name}");
            let collection = Collection::build(Arc::clone(&self.disk), &cname, docs)?;
            let inverted = InvertedFile::build(Arc::clone(&self.disk), &cname, &collection)?;
            let fnl = FnlIndex::build(Arc::clone(&self.disk), &cname, &collection)?;
            text.insert(
                col_name.clone(),
                TextColumn {
                    collection,
                    inverted,
                    fnl,
                },
            );
        }
        self.relations.insert(
            name.clone(),
            Relation {
                name,
                columns,
                rows,
                text,
            },
        );
        Ok(())
    }

    /// Looks a relation up (case-insensitive).
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, r)| r)
    }
}

/// SQL LIKE matching with `%` wildcards (any substring, including empty).
pub fn like_match(text: &str, pattern: &str) -> bool {
    let parts: Vec<&str> = pattern.split('%').collect();
    if parts.len() == 1 {
        return text == pattern;
    }
    let mut rest = text;
    // First part must be a prefix.
    let first = parts[0];
    if !rest.starts_with(first) {
        return false;
    }
    rest = &rest[first.len()..];
    // Middle parts must occur in order.
    for part in &parts[1..parts.len() - 1] {
        if part.is_empty() {
            continue;
        }
        match rest.find(part) {
            Some(i) => rest = &rest[i + part.len()..],
            None => return false,
        }
    }
    // Last part must be a suffix of what remains.
    let last = parts[parts.len() - 1];
    last.is_empty() || rest.ends_with(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_catalog() -> Catalog {
        let disk = Arc::new(DiskSim::new(4096));
        let mut catalog = Catalog::new(disk);
        catalog
            .add(
                RelationBuilder::new("Applicants")
                    .column("SSN", ColumnType::Str)
                    .column("Name", ColumnType::Str)
                    .column("Resume", ColumnType::Text)
                    .row(vec![
                        Value::Str("111".into()),
                        Value::Str("Ada".into()),
                        Value::Text("database systems and query optimization".into()),
                    ])
                    .unwrap()
                    .row(vec![
                        Value::Str("222".into()),
                        Value::Str("Bob".into()),
                        Value::Text("compilers and type systems".into()),
                    ])
                    .unwrap(),
            )
            .unwrap();
        catalog
    }

    #[test]
    fn text_columns_become_collections_with_inverted_files() {
        let catalog = sample_catalog();
        let rel = catalog
            .relation("applicants")
            .expect("case-insensitive lookup");
        assert_eq!(rel.num_rows(), 2);
        let tc = rel.text_column("Resume").expect("text column storage");
        assert_eq!(tc.collection.store().num_docs(), 2);
        assert!(tc.inverted.num_entries() > 0);
        // Shared registry: "systems" (stemmed to "system") appears in both
        // resumes, so its document frequency is 2.
        let term = catalog
            .registry()
            .lookup("system")
            .expect("stemmed term registered");
        assert_eq!(tc.collection.profile().doc_frequency(term), 2);
    }

    #[test]
    fn schema_violations_are_rejected() {
        let b = RelationBuilder::new("R")
            .column("a", ColumnType::Int)
            .row(vec![Value::Str("oops".into())]);
        assert!(b.is_err());
        let b = RelationBuilder::new("R")
            .column("a", ColumnType::Int)
            .row(vec![]);
        assert!(b.is_err());
    }

    #[test]
    fn duplicate_relations_are_rejected() {
        let mut catalog = sample_catalog();
        let dup = RelationBuilder::new("Applicants").column("x", ColumnType::Int);
        assert!(catalog.add(dup).is_err());
    }

    /// Lookups ignore ASCII case, so names that differ only in case would
    /// leave `relation` and `column_index` to pick one of two: both kinds
    /// of clash are refused, naming it, and the registry is left as it was.
    #[test]
    fn names_that_differ_only_in_case_are_rejected() {
        let mut catalog = sample_catalog();
        let terms = catalog.registry().len();
        let text = || Value::Text("unseen words".into());
        let err = catalog
            .add(
                RelationBuilder::new("APPLICANTS")
                    .column("Body", ColumnType::Text)
                    .row(vec![text()])
                    .unwrap(),
            )
            .unwrap_err();
        assert!(
            matches!(&err, Error::Plan(m) if m.contains("APPLICANTS") && m.contains("Applicants")),
            "{err}"
        );
        let err = catalog
            .add(
                RelationBuilder::new("Docs")
                    .column("Body", ColumnType::Text)
                    .column("body", ColumnType::Text)
                    .row(vec![text(), text()])
                    .unwrap(),
            )
            .unwrap_err();
        assert!(
            matches!(&err, Error::Plan(m) if m.contains("Body") && m.contains("body")),
            "{err}"
        );
        assert!(catalog.relation("docs").is_none());
        assert_eq!(catalog.registry().len(), terms);
        assert_eq!(catalog.relation("applicants").unwrap().name(), "Applicants");
    }

    #[test]
    fn like_matching() {
        assert!(like_match("Senior Engineer II", "%Engineer%"));
        assert!(like_match("Engineer", "%Engineer%"));
        assert!(like_match("Engineer", "Engineer"));
        assert!(!like_match("Enginee", "%Engineer%"));
        assert!(like_match("abcdef", "a%c%f"));
        assert!(!like_match("abcdef", "a%c%e"));
        assert!(like_match("anything", "%"));
        assert!(!like_match("x", "y%"));
        assert!(like_match("prefix rest", "prefix%"));
        assert!(like_match("the suffix", "%suffix"));
    }

    #[test]
    fn value_display_truncates_long_text() {
        let long = Value::Text("x".repeat(100));
        assert!(long.to_string().len() < 100);
        assert_eq!(Value::Int(42).to_string(), "42");
    }
}
