//! Source-scan lint: every read-modify-write save in `loupe-db` must go
//! through the cross-process writer lock.
//!
//! The database serializes concurrent writers (multiple `loupe sweep`
//! processes, `loupe serve` shards) with an advisory file lock taken by
//! `Shared::lock_writers`. A save path that calls `write_atomic` (the
//! crate's one file writer) without first taking the lock can
//! interleave with another writer and lose updates — a bug class that
//! is trivial to introduce when adding a new write path and invisible
//! to unit tests run in a single process. This test walks the crate's
//! source and rejects any function that writes a file without locking.

use std::fs;
use std::path::Path;

/// A function extracted from a source file: its name and body text.
struct FnBody {
    file: String,
    name: String,
    body: String,
}

/// Extracts every `fn` item (free function or method) with its body.
///
/// This is a token-level scan, not a full parse: it finds `fn <ident>`,
/// skips ahead to the body's opening brace, and walks to the matching
/// close brace while ignoring braces inside strings, chars and
/// comments. Nested functions are folded into their parent's body,
/// which is the conservative direction for this lint.
fn extract_fns(file: &str, src: &str) -> Vec<FnBody> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(rel) = src[i..].find("fn ") {
        let at = i + rel;
        // Require a token boundary before `fn` so `often ` etc. don't match.
        let boundary = at == 0 || !bytes[at - 1].is_ascii_alphanumeric() && bytes[at - 1] != b'_';
        if !boundary {
            i = at + 3;
            continue;
        }
        let name: String = src[at + 3..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            i = at + 3;
            continue;
        }
        // Find the body's opening brace; a `;` first means a trait
        // method signature or extern declaration with no body.
        let mut j = at + 3 + name.len();
        let mut open = None;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    open = Some(j);
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else {
            i = at + 3;
            continue;
        };
        let end = match matching_brace(src, open) {
            Some(end) => end,
            None => src.len(),
        };
        out.push(FnBody {
            file: file.to_owned(),
            name,
            body: src[open..end].to_owned(),
        });
        // Continue *inside* the body so nested fns are also listed on
        // their own (harmless duplicates; the parent copy is what the
        // lint conservatively checks).
        i = open + 1;
    }
    out
}

/// Index of the brace matching `src[open]`, skipping strings, chars,
/// line comments and block comments.
fn matching_brace(src: &str, open: usize) -> Option<usize> {
    let bytes = src.as_bytes();
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            b'"' => {
                // String literal (raw strings handled loosely: the scan
                // only needs to not miscount braces in practice).
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
            }
            // Char literal (not a lifetime); only skip if it closes soon.
            b'\'' if i + 2 < bytes.len() && (bytes[i + 2] == b'\'' || bytes[i + 1] == b'\\') => {
                i += 2;
                while i < bytes.len() && bytes[i] != b'\'' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    i += 1;
                }
                i += 1;
            }
            _ => {}
        }
        i += 1;
    }
    None
}

#[test]
fn every_db_save_path_takes_the_writer_lock() {
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/db/src");
    let mut fns = Vec::new();
    for entry in fs::read_dir(&src_dir).expect("crates/db/src must exist") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = fs::read_to_string(&path).expect("readable source file");
        fns.extend(extract_fns(&file, &src));
    }

    // Functions named `*_locked` are internal helpers whose contract is
    // "caller already holds the writer lock" — they may call write_atomic
    // bare, but everyone who calls *them* must lock.
    let locked_helpers: Vec<String> = fns
        .iter()
        .filter(|f| f.name.ends_with("_locked"))
        .map(|f| format!("{}(", f.name))
        .collect();

    let mut checked = 0usize;
    let mut violations = Vec::new();
    for f in &fns {
        // The writer itself is allowed to call write_atomic without
        // locking: its callers hold the lock. So is the snapshot writer:
        // an index under `index/` is derived, content-addressed data
        // that readers validate, written outside the lock during bulk
        // reads (a lost race costs one rebuild, never an update).
        if f.name == "write_atomic"
            || f.name.ends_with("_locked")
            || (f.file == "snapshot.rs" && f.name == "write")
        {
            continue;
        }
        let writes_directly = f.body.contains("write_atomic(");
        let writes_via_helper = locked_helpers.iter().any(|h| f.body.contains(h.as_str()));
        if writes_directly || writes_via_helper {
            checked += 1;
            if !f.body.contains("lock_writers()") {
                violations.push(format!("{}::{}", f.file, f.name));
            }
        }
    }

    assert!(
        checked >= 4,
        "expected to find several write paths in loupe-db, found {checked} — \
         did the scan or the crate layout change?"
    );
    assert!(
        violations.is_empty(),
        "these loupe-db functions call write_atomic without taking the \
         cross-process writer lock (lock_writers): {violations:?}"
    );
}

#[test]
fn the_scanner_sees_through_strings_and_comments() {
    let src = r#"
        fn locked_save() {
            let _g = self.shared.lock_writers()?;
            write_json(&path, &value)?;
        }
        fn sneaky_save() {
            // lock_writers() — only mentioned in a comment
            let s = "{"; // unbalanced brace inside a string
            write_json(&path, &value)?;
        }
    "#;
    let fns = extract_fns("test.rs", src);
    let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["locked_save", "sneaky_save"]);
    assert!(fns[0].body.contains("lock_writers()"));
    // The comment mention still counts textually — the real lint relies
    // on the repo not gaming itself; what matters here is that the
    // unbalanced brace in the string didn't merge the two functions.
    assert!(fns[1].body.contains("write_json("));
    assert!(!fns[1].body.contains("let _g"));
}
