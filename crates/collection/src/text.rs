//! Text ingestion: tokenizer, stop words, light stemming and the standard
//! term-number mapping.
//!
//! Section 3 of the paper argues that a multidatabase system benefits from a
//! *standard mapping* from terms to term numbers shared by all local IR
//! systems: it saves communication (numbers instead of strings) and
//! processing (integer comparisons). [`TermRegistry`] is that mapping — all
//! collections built through one registry agree on term numbers, which is
//! what lets the join algorithms compare d-cells across databases directly.

use crate::document::Document;
use textjoin_common::{DCell, FxHashMap, TermId};

/// The shared term → term-number mapping ("standard mapping", section 3).
///
/// Numbers are assigned densely in first-seen order, so they always fit the
/// 3-byte encoding for vocabularies up to ~16.7M terms.
#[derive(Debug, Default)]
pub struct TermRegistry {
    by_term: FxHashMap<Box<str>, TermId>,
    terms: Vec<Box<str>>,
}

impl TermRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether no terms are registered.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns the id of `term`, registering it if new.
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.by_term.get(term) {
            return id;
        }
        let id = TermId::new(self.terms.len() as u32);
        self.by_term.insert(term.into(), id);
        self.terms.push(term.into());
        id
    }

    /// Looks a term up without registering it.
    pub fn lookup(&self, term: &str) -> Option<TermId> {
        self.by_term.get(term).copied()
    }

    /// The term string for an id.
    pub fn term(&self, id: TermId) -> Option<&str> {
        self.terms.get(id.index()).map(|t| &**t)
    }

    /// Tokenizes, normalizes and interns `text` into a [`Document`].
    pub fn ingest(&mut self, text: &str) -> Document {
        document(text, |term| Some(self.intern(term)))
    }

    /// Like [`ingest`](Self::ingest) but read-only: unknown terms are
    /// dropped instead of registered (useful when probing with a query
    /// against a frozen vocabulary).
    pub fn ingest_readonly(&self, text: &str) -> Document {
        document(text, |term| self.lookup(term))
    }
}

/// The document of `text` under `id_of`: its term ids sorted, each run of
/// one id a d-cell weighted by the run's length (saturating at `u16::MAX`).
/// A term takes at least two bytes and a separator, so an id buffer of
/// `(len + 1) / 3` never regrows; the cells are sized exactly, as a whole
/// relation's documents are held at once before they are written.
fn document(text: &str, mut id_of: impl FnMut(&str) -> Option<TermId>) -> Document {
    let mut ids = Vec::with_capacity((text.len() + 1) / 3);
    for_each_term(text, |term| ids.extend(id_of(term)));
    ids.sort_unstable();
    let runs = || ids.chunk_by(|a, b| a == b);
    let mut cells = Vec::with_capacity(runs().count());
    cells.extend(runs().map(|run| DCell::new(run[0], run.len().min(u16::MAX as usize) as u16)));
    Document::from_sorted_cells(cells)
}

/// Splits text into normalized index terms: lowercase alphanumeric runs,
/// stop words removed, light suffix stemming applied.
pub fn tokenize(text: &str) -> impl Iterator<Item = String> {
    let mut terms = Vec::new();
    for_each_term(text, |term| terms.push(term.to_owned()));
    terms.into_iter()
}

/// The one term loop, under [`tokenize`] and both ingests: lends `emit`
/// each index term of `text` in order, from one reused buffer. An ASCII run
/// is lowercased in place; any other through `str::to_lowercase` as a
/// whole, never char by char, which alone knows a word-final `Σ` is `ς`
/// (`"ΣΟΦΙΑΣ"` → `"σοφιας"`, not `"σοφιασ"`). Runs of at most one byte once
/// lowercased are dropped, as are stop words.
fn for_each_term(text: &str, mut emit: impl FnMut(&str)) {
    let mut word = String::new();
    for run in text.split(|c: char| !c.is_alphanumeric()) {
        word.clear();
        if run.is_ascii() {
            word.push_str(run);
            word.make_ascii_lowercase();
        } else {
            word.push_str(&run.to_lowercase());
        }
        if word.len() > 1 && !is_stop_word(&word) {
            stem(&mut word);
            emit(&word);
        }
    }
}

/// English stop words excluded from indexing (a compact, conventional list;
/// IR systems drop these because they carry no discriminating power).
#[rustfmt::skip]
fn is_stop_word(word: &str) -> bool {
    matches!(
        word,
        "a" | "an" | "and" | "are" | "as" | "at" | "be" | "but" | "by" | "for" | "from" | "had"
            | "has" | "have" | "he" | "her" | "his" | "i" | "in" | "is" | "it" | "its" | "not"
            | "of" | "on" | "or" | "our" | "she" | "that" | "the" | "their" | "they" | "this"
            | "to" | "was" | "we" | "were" | "will" | "with" | "you" | "your"
    )
}

/// A light suffix stemmer (a small subset of Porter's rules — enough to
/// conflate the common English inflections without a full rule engine),
/// applied in place. Every suffix is ASCII, so a cut always lands on a
/// char boundary.
fn stem(word: &mut String) {
    // Order matters: longest applicable suffix first; a suffix whose stem
    // would be too short falls through to the next.
    for (suffix, min_stem) in [
        ("ations", 3),
        ("ation", 3),
        ("ings", 3),
        ("ing", 3),
        ("edly", 3),
        ("ies", 2),
        ("ed", 3),
    ] {
        if word.ends_with(suffix) && word.len() - suffix.len() >= min_stem {
            word.truncate(word.len() - suffix.len());
            // "ies" → "y" (queries → query).
            if suffix == "ies" {
                word.push('y');
            }
            return;
        }
    }
    // Plural handling follows Harman's s-stemmer: "-es" drops only the "s"
    // so "databases" conflates with "database"; a bare "-s" is dropped
    // except after "s"/"u" ("less", "bus" stay put).
    let plural = word
        .strip_suffix('s')
        .is_some_and(|s| s.len() >= 3 && !s.ends_with(['s', 'u']));
    if plural {
        word.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The pipeline as it stood before the shared loop — an iterator of
    /// owned `String`s, a stop-word slice scan, a stemmer returning a new
    /// `String`, a SipHash registry and a per-document count map fed to
    /// `Document::from_term_counts` — kept as the oracle the loop must
    /// equal.
    mod reference {
        use crate::document::Document;
        use std::collections::HashMap;
        use textjoin_common::TermId;

        pub const STOP_WORDS: &[&str] = &[
            "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "had", "has",
            "have", "he", "her", "his", "i", "in", "is", "it", "its", "not", "of", "on", "or",
            "our", "she", "that", "the", "their", "they", "this", "to", "was", "we", "were",
            "will", "with", "you", "your",
        ];

        pub fn tokenize(text: &str) -> impl Iterator<Item = String> + '_ {
            text.split(|c: char| !c.is_alphanumeric())
                .filter(|w| !w.is_empty())
                .map(|w| w.to_lowercase())
                .filter(|w| w.len() > 1 && !STOP_WORDS.contains(&w.as_str()))
                .map(|w| stem(&w))
        }

        pub fn stem(word: &str) -> String {
            let w = word;
            for (suffix, min_stem) in [
                ("ations", 3),
                ("ation", 3),
                ("ings", 3),
                ("ing", 3),
                ("edly", 3),
                ("ies", 2),
                ("ed", 3),
            ] {
                if let Some(stemmed) = w.strip_suffix(suffix) {
                    if stemmed.len() >= min_stem {
                        if suffix == "ies" {
                            return format!("{stemmed}y");
                        }
                        return stemmed.to_string();
                    }
                }
            }
            if let Some(stemmed) = w.strip_suffix('s') {
                if stemmed.len() >= 3 && !stemmed.ends_with('s') && !stemmed.ends_with('u') {
                    return stemmed.to_string();
                }
            }
            w.to_string()
        }

        #[derive(Default)]
        pub struct Registry {
            by_term: HashMap<String, TermId>,
            pub terms: Vec<String>,
        }

        impl Registry {
            fn intern(&mut self, term: &str) -> TermId {
                if let Some(&id) = self.by_term.get(term) {
                    return id;
                }
                let id = TermId::new(self.terms.len() as u32);
                self.by_term.insert(term.to_string(), id);
                self.terms.push(term.to_string());
                id
            }

            pub fn ingest(&mut self, text: &str) -> Document {
                let mut counts: HashMap<TermId, u32> = HashMap::new();
                for token in tokenize(text) {
                    *counts.entry(self.intern(&token)).or_insert(0) += 1;
                }
                Document::from_term_counts(counts)
            }

            pub fn ingest_readonly(&self, text: &str) -> Document {
                let mut counts: HashMap<TermId, u32> = HashMap::new();
                for token in tokenize(text) {
                    if let Some(&id) = self.by_term.get(&token) {
                        *counts.entry(id).or_insert(0) += 1;
                    }
                }
                Document::from_term_counts(counts)
            }
        }
    }

    /// The stemmed form of one word, through the in-place stemmer.
    fn stemmed(word: &str) -> String {
        let mut w = word.to_string();
        stem(&mut w);
        w
    }

    /// Ingests `texts` in order into a fresh registry and into the
    /// reference, then probes each text, and all of them joined, read-only
    /// against the final vocabulary: identical tokens, cells, ids in
    /// first-seen order and `term(id)` throughout.
    fn assert_equals_reference(texts: &[String]) -> Result<(), TestCaseError> {
        let (mut reg, mut oracle) = (TermRegistry::new(), reference::Registry::default());
        for text in texts {
            let want: Vec<String> = reference::tokenize(text).collect();
            prop_assert_eq!(
                tokenize(text).collect::<Vec<_>>(),
                want,
                "tokenize({:?})",
                text
            );
            prop_assert_eq!(reg.ingest(text), oracle.ingest(text), "ingest({:?})", text);
        }
        prop_assert_eq!(reg.len(), oracle.terms.len());
        for (raw, term) in oracle.terms.iter().enumerate() {
            let id = TermId::new(raw as u32);
            prop_assert_eq!(reg.term(id), Some(term.as_str()));
            prop_assert_eq!(reg.lookup(term), Some(id));
        }
        for text in texts.iter().chain([&texts.concat()]) {
            let probe = format!("{text} unseen {text}");
            prop_assert_eq!(reg.ingest_readonly(&probe), oracle.ingest_readonly(&probe));
        }
        Ok(())
    }

    #[test]
    fn tokenize_lowercases_and_splits_on_non_alphanumeric() {
        let tokens: Vec<String> = tokenize("Database-Systems, 2nd Edition!").collect();
        assert_eq!(tokens, vec!["database", "system", "2nd", "edition"]);
    }

    #[test]
    fn tokenize_drops_stop_words_and_single_chars() {
        let tokens: Vec<String> = tokenize("the cat and a dog x").collect();
        assert_eq!(tokens, vec!["cat", "dog"]);
    }

    #[test]
    fn stemming_conflates_inflections() {
        assert_eq!(stemmed("engineering"), "engineer");
        assert_eq!(stemmed("joins"), "join");
        assert_eq!(stemmed("queries"), "query");
        assert_eq!(stemmed("processed"), "process");
        // s-stemmer plural handling: singular and plural conflate.
        assert_eq!(stemmed("databases"), "database");
        assert_eq!(stemmed("database"), "database");
        // Short stems are left alone ("thing" must not become "th"), and
        // "-ss"/"-us" words keep their s.
        assert_eq!(stemmed("as"), "as");
        assert_eq!(stemmed("thing"), "thing");
        assert_eq!(stemmed("less"), "less");
        assert_eq!(stemmed("bus"), "bus");
    }

    #[test]
    fn the_stop_words_are_the_reference_list() {
        for word in reference::STOP_WORDS {
            assert!(is_stop_word(word), "{word}");
        }
        for word in ["", "x", "ab", "ands", "thes", "The", "yours", "ït"] {
            assert!(!is_stop_word(word), "{word}");
        }
    }

    /// The cases the loop takes apart from the old pipeline: case-folded
    /// stop words, every suffix rule and the one-char stems it spares,
    /// one- and two-byte tokens and digits, a word-final sigma, a one-char
    /// word that lowercases to three bytes and one (the Kelvin sign) whose
    /// three bytes lowercase to one.
    #[test]
    fn the_loop_equals_the_old_pipeline_on_its_edge_cases() {
        let cases = [
            "The AND tHe aNd Your YOU'RE i I a A",
            "queries ies aies flies ties classes glasses bus buses us plus less address",
            "nations ations stations creations ation ings bings things edly abedly gladly",
            "ed bed trusted ied ss sss ssss uus",
            "x y z ab a1 1a 12 7 007 2nd 3RD x9 ÿ é É ß ẞ",
            "ΣΟΦΙΑΣ σοφιας ΣΟΦΙΑΣ. ΟΔΟΣ Σ ΣΣ",
            "İSTANBUL İ İİ İs istanbul K KB KK",
            "ﬁ ǅungla ǄUNGLA ÅNGSTRÖM Ⅻ ⅻ ½ ٣٤ 你好 日本語",
            "",
            "   ,,, !!! ---",
        ];
        let texts: Vec<String> = cases.iter().map(|c| c.to_string()).collect();
        for text in &texts {
            assert_equals_reference(std::slice::from_ref(text)).unwrap();
        }
        assert_equals_reference(&texts).unwrap();
    }

    #[test]
    fn weights_saturate_at_u16_max() {
        let text = "word ".repeat(u16::MAX as usize + 10);
        let mut reg = TermRegistry::new();
        let doc = reg.ingest(&text);
        assert_eq!(doc.weight_of(reg.lookup("word").unwrap()), u16::MAX);
        assert_equals_reference(&[text]).unwrap();
    }

    /// Pieces a text is drawn from: words that exercise the stop list and
    /// the stemmer in mixed case, letters, digits, separators, and any
    /// Unicode scalar value at all.
    fn piece() -> impl Strategy<Value = String> {
        let words: Vec<&str> = "The AND your queries Classes bus ations Stations TRUSTED \
                                gladly ings ies ΣΟΦΙΑΣ İSTANBUL K ß ǅ ﬁ ½"
            .split_whitespace()
            .collect();
        prop_oneof![
            (0..words.len()).prop_map(move |i| words[i].to_string()),
            (b'A'..=b'z').prop_map(|b| (b as char).to_string()),
            (b'0'..=b'9').prop_map(|b| (b as char).to_string()),
            (0usize..6).prop_map(|i| [" ", " ", "-", ",", "\n", "'"][i].to_string()),
            (0u32..0x11_0000).prop_map(|c| char::from_u32(c).map(String::from).unwrap_or_default()),
            (0u32..0x800).prop_map(|c| char::from_u32(c).map(String::from).unwrap_or_default()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// On arbitrary Unicode text, the loop tokenizes, ingests and
        /// ingests read-only exactly as the old pipeline did.
        #[test]
        fn prop_the_loop_equals_the_old_pipeline(
            docs in proptest::collection::vec(proptest::collection::vec(piece(), 0..40), 1..4),
        ) {
            let texts: Vec<String> = docs.into_iter().map(|d| d.concat()).collect();
            assert_equals_reference(&texts)?;
        }
    }

    #[test]
    fn registry_assigns_dense_stable_ids() {
        let mut reg = TermRegistry::new();
        let a = reg.intern("database");
        let b = reg.intern("join");
        assert_eq!(a, reg.intern("database"));
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 1);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.term(a), Some("database"));
        assert_eq!(reg.lookup("join"), Some(b));
        assert_eq!(reg.lookup("missing"), None);
    }

    #[test]
    fn ingest_counts_occurrences() {
        let mut reg = TermRegistry::new();
        let doc = reg.ingest("join queries join databases; queries join");
        let join = reg.lookup("join").unwrap();
        let query = reg.lookup("query").unwrap();
        assert_eq!(doc.weight_of(join), 3);
        assert_eq!(doc.weight_of(query), 2);
    }

    #[test]
    fn shared_registry_aligns_term_numbers_across_collections() {
        // The multidatabase scenario of section 3: two local systems using
        // the same standard mapping can compare term numbers directly.
        let mut reg = TermRegistry::new();
        let resume = reg.ingest("senior database engineer with query optimization experience");
        let job = reg.ingest("database engineer role: query engines and optimization");
        assert!(resume.dot(&job).value() >= 3.0); // database, engineer, query, optimization
    }

    #[test]
    fn readonly_ingest_drops_unknown_terms() {
        let mut reg = TermRegistry::new();
        reg.ingest("alpha beta");
        let d = reg.ingest_readonly("alpha gamma");
        assert_eq!(d.num_terms(), 1);
        assert_eq!(reg.lookup("gamma"), None);
    }
}
