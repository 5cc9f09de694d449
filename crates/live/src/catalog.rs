//! The persisted per-generation catalog (`<name>.g<G>.dir`).
//!
//! The in-memory directories of the base structures (document byte spans,
//! inverted-file entry spans, B+tree scalars) are rebuilt from this file
//! on recovery. It is written once, before the generation is committed to
//! the manifest, and never modified — so recovery either sees a complete
//! catalog (the generation is live) or never looks at it (the generation
//! was not committed).
//!
//! Layout (`storage::packed`): a `[u64 body len]` prefix, then the body,
//! with the tail page zero-padded. Body (all integers LE):
//!
//! ```text
//! [u8 version = 1][u8 codec]
//! [u64 doc total bytes][u64 n docs][u8 sparse]
//!   n × { u64 offset, u64 len } (+ u32 id when sparse)
//! [u64 inv total bytes][u64 n entries]
//!   n × { u32 term, u64 offset, u64 len, u32 doc freq }
//! [u32 root][u32 height][u64 n terms][u32 first leaf][u64 leaf pages]
//! ```

use std::sync::Arc;
use textjoin_common::{Error, Result, TermId};
use textjoin_invfile::{EntryMeta, InvertedFile, PostingCodec};
use textjoin_storage::{ByteSpan, DiskSim, FileId, PackedWriter};

const VERSION: u8 = 1;

/// The parsed catalog of one generation.
pub struct Catalog {
    /// Posting codec of the inverted file.
    pub codec: PostingCodec,
    /// Logical bytes of the document store.
    pub doc_total_bytes: u64,
    /// Byte span of each document, in storage order.
    pub doc_directory: Vec<ByteSpan>,
    /// Sparse document numbers (None = dense `0..n`).
    pub doc_ids: Option<Vec<u32>>,
    /// Logical bytes of the inverted file.
    pub inv_total_bytes: u64,
    /// Entry directory of the inverted file, in term order.
    pub inv_directory: Vec<EntryMeta>,
    /// B+tree scalars: root, height, num terms, first leaf, leaf pages.
    pub btree: (u32, u32, u64, u32, u64),
}

fn codec_code(codec: PostingCodec) -> u8 {
    match codec {
        PostingCodec::Fixed5 => 0,
        PostingCodec::VarintGap => 1,
    }
}

fn codec_from(code: u8) -> Result<PostingCodec> {
    match code {
        0 => Ok(PostingCodec::Fixed5),
        1 => Ok(PostingCodec::VarintGap),
        c => Err(Error::Corrupt(format!("unknown posting codec {c}"))),
    }
}

/// Serializes and writes the catalog for a freshly built generation.
pub fn write(
    disk: &Arc<DiskSim>,
    name: &str,
    store: &textjoin_collection::DocumentStore,
    inv: &InvertedFile,
) -> Result<FileId> {
    let store_ids = store.sparse_ids();
    let mut body = vec![VERSION, codec_code(inv.codec())];
    body.extend_from_slice(&store.total_bytes().to_le_bytes());
    body.extend_from_slice(&store.num_docs().to_le_bytes());
    body.push(u8::from(store_ids.is_some()));
    for (i, span) in store.directory().iter().enumerate() {
        body.extend_from_slice(&span.offset.to_le_bytes());
        body.extend_from_slice(&span.len.to_le_bytes());
        if let Some(ids) = store_ids {
            body.extend_from_slice(&ids[i].to_le_bytes());
        }
    }
    body.extend_from_slice(&inv.total_bytes().to_le_bytes());
    body.extend_from_slice(&inv.num_entries().to_le_bytes());
    for meta in inv.directory() {
        body.extend_from_slice(&meta.term.raw().to_le_bytes());
        body.extend_from_slice(&meta.span.offset.to_le_bytes());
        body.extend_from_slice(&meta.span.len.to_le_bytes());
        body.extend_from_slice(&meta.doc_freq.to_le_bytes());
    }
    let bt = inv.btree();
    body.extend_from_slice(&bt.root().to_le_bytes());
    body.extend_from_slice(&bt.height().to_le_bytes());
    body.extend_from_slice(&bt.num_terms().to_le_bytes());
    body.extend_from_slice(&bt.first_leaf().to_le_bytes());
    body.extend_from_slice(&bt.num_leaf_pages().to_le_bytes());

    // The length prefix and the body, back to back; the writer zero-pads
    // the tail page.
    let file = disk.create_file(name)?;
    let mut writer = PackedWriter::new(Arc::clone(disk), file);
    writer.append(&(body.len() as u64).to_le_bytes())?;
    writer.append(&body)?;
    writer.finish()?;
    Ok(file)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.at + n > self.bytes.len() {
            return Err(Error::Corrupt("catalog truncated".into()));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
    fn u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }
}

/// Reads the catalog back — one sequential scan of the file.
pub fn read(disk: &Arc<DiskSim>, file: FileId) -> Result<Catalog> {
    let pages = disk.read_scan(file, 0, disk.num_pages(file))?;
    let mut bytes = Vec::new();
    for p in &pages {
        bytes.extend_from_slice(p);
    }
    if bytes.len() < 8 {
        return Err(Error::Corrupt("catalog file too short".into()));
    }
    let body_len = u64::from_le_bytes(bytes[0..8].try_into().unwrap()) as usize;
    if bytes.len() < 8 + body_len {
        return Err(Error::Corrupt("catalog body truncated".into()));
    }
    let mut c = Cursor {
        bytes: &bytes[8..8 + body_len],
        at: 0,
    };
    if c.u8()? != VERSION {
        return Err(Error::Corrupt("unknown catalog version".into()));
    }
    let codec = codec_from(c.u8()?)?;
    let doc_total_bytes = c.u64()?;
    let n_docs = c.u64()? as usize;
    let sparse = c.u8()? != 0;
    let mut doc_directory = Vec::with_capacity(n_docs);
    let mut doc_ids = sparse.then(|| Vec::with_capacity(n_docs));
    for _ in 0..n_docs {
        let offset = c.u64()?;
        let len = c.u64()?;
        doc_directory.push(ByteSpan::new(offset, len));
        if let Some(ids) = &mut doc_ids {
            ids.push(c.u32()?);
        }
    }
    let inv_total_bytes = c.u64()?;
    let n_entries = c.u64()? as usize;
    let mut inv_directory = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let term = TermId::new(c.u32()?);
        let offset = c.u64()?;
        let len = c.u64()?;
        let doc_freq = c.u32()?;
        inv_directory.push(EntryMeta {
            term,
            span: ByteSpan::new(offset, len),
            doc_freq,
        });
    }
    let btree = (c.u32()?, c.u32()?, c.u64()?, c.u32()?, c.u64()?);
    Ok(Catalog {
        codec,
        doc_total_bytes,
        doc_directory,
        doc_ids,
        inv_total_bytes,
        inv_directory,
        btree,
    })
}
