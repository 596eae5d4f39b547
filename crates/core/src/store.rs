//! Whole-file CRC records: the crash-consistency discipline under every
//! file the workspace rewrites in place — explore checkpoints,
//! `hi-serve` job records, and the compactions of `hi-serve`'s
//! append-only segment logs.
//!
//! * [`seal`] appends a `crc32 <8 hex digits>` trailer over every byte
//!   before it; [`unseal`] verifies the trailer and returns that body,
//!   so truncation and bit rot are *detected*, never parsed.
//! * [`write_atomic`] stages the bytes in a `.tmp` sibling, fsyncs,
//!   rotates any previous file to `.prev`, then renames into place — a
//!   reader observes either the old intact file or the new intact one.
//! * [`load_recovering`] falls back to that `.prev` rotation when the
//!   primary copy is unusable, and keeps the primary's error when both
//!   are.
//!
//! The formats on top are body codecs: each owns its header and fields,
//! this module owns the trailer and the file dance. Callers word their
//! own fallback notes.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::crc32::crc32_ieee;

/// Appends the `crc32 <hex>` trailer covering every byte of `body`.
pub fn seal(mut body: String) -> String {
    let crc = crc32_ieee(body.as_bytes());
    body.push_str(&format!("crc32 {crc:08x}\n"));
    body
}

/// Verifies the trailer [`seal`] wrote and returns the body it covers.
///
/// The trailer is the last non-empty line; everything before its first
/// byte is covered, so a CRLF-rewritten file is named corrupt rather
/// than parsed. Errors name the trailer's line.
pub fn unseal(text: &str) -> Result<&str, String> {
    // Scan back from the end past blank and whitespace-only lines; only
    // an error needs the trailer's line number, so it is counted then.
    let mut end = text.len();
    let trailer = loop {
        if end == 0 {
            break None;
        }
        // The line ending at `end` keeps its own newline, if any.
        let body_end = if text[..end].ends_with('\n') {
            end - 1
        } else {
            end
        };
        let start = text[..body_end].rfind('\n').map_or(0, |nl| nl + 1);
        let line = text[start..end].trim();
        if !line.is_empty() {
            break Some((start, line));
        }
        end = start;
    };
    let Some((start, rest)) =
        trailer.and_then(|(start, line)| Some((start, line.strip_prefix("crc32 ")?)))
    else {
        return Err("missing crc32 trailer — the file is truncated".into());
    };
    let lineno = || {
        text.as_bytes()[..start]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            + 1
    };
    let rest = rest.trim();
    let recorded = u32::from_str_radix(rest, 16)
        .ok()
        .filter(|_| rest.len() == 8)
        .ok_or_else(|| format!("line {}: bad crc32 trailer {rest:?}", lineno()))?;
    let body = &text[..start];
    let computed = crc32_ieee(body.as_bytes());
    if computed != recorded {
        return Err(format!(
            "line {}: crc32 mismatch (recorded {recorded:08x}, computed \
             {computed:08x}) — the file is corrupt or truncated",
            lineno()
        ));
    }
    Ok(body)
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

/// The `.prev` rotation [`write_atomic`] keeps beside `path`
/// (`x.ck` → `x.ck.prev`).
pub fn prev_path(path: &Path) -> PathBuf {
    sibling(path, ".prev")
}

/// Writes `bytes` to `path` crash-safely: stage in `<path>.tmp`, fsync,
/// rotate any existing file to `<path>.prev`, rename into place. A crash
/// at any instant leaves an intact file under `path` or its `.prev`.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = sibling(path, ".tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    if path.exists() {
        // A failed rotation only costs the fallback copy; the rename
        // below still lands the new file atomically.
        let _ = std::fs::rename(path, prev_path(path));
    }
    std::fs::rename(&tmp, path)
}

/// Loads `path` with `load`, falling back to its `.prev` rotation when
/// the primary copy fails. Returns the value and, if the fallback was
/// used, the primary's error for the caller's note. When both copies
/// fail, the primary's error wins: it names the file the caller asked
/// for.
pub fn load_recovering<T, E>(
    path: &Path,
    load: impl Fn(&Path) -> Result<T, E>,
) -> Result<(T, Option<E>), E> {
    match load(path) {
        Ok(value) => Ok((value, None)),
        Err(primary) => match load(&prev_path(path)) {
            Ok(value) => Ok((value, Some(primary))),
            Err(_) => Err(primary),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = "hi-test record v1\nvalue 42\nend\n";
    const MISSING: &str = "missing crc32 trailer — the file is truncated";

    /// The forward-scan reference: split and trim every line to find the
    /// last non-empty one, numbering lines on the way.
    fn unseal_forward(text: &str) -> Result<&str, String> {
        let mut trailer: Option<(usize, usize, &str)> = None;
        let mut offset = 0;
        for (index, line) in text.split_inclusive('\n').enumerate() {
            if !line.trim().is_empty() {
                trailer = Some((index + 1, offset, line.trim()));
            }
            offset += line.len();
        }
        let Some((lineno, start, rest)) =
            trailer.and_then(|(n, start, line)| Some((n, start, line.strip_prefix("crc32 ")?)))
        else {
            return Err(MISSING.into());
        };
        let rest = rest.trim();
        let recorded = u32::from_str_radix(rest, 16)
            .ok()
            .filter(|_| rest.len() == 8)
            .ok_or_else(|| format!("line {lineno}: bad crc32 trailer {rest:?}"))?;
        let body = &text[..start];
        let computed = crc32_ieee(body.as_bytes());
        if computed != recorded {
            return Err(format!(
                "line {lineno}: crc32 mismatch (recorded {recorded:08x}, computed \
                 {computed:08x}) — the file is corrupt or truncated"
            ));
        }
        Ok(body)
    }

    /// Asserts that `unseal` and the forward oracle both give `expected`.
    fn pin(text: &str, expected: Result<&str, String>) {
        assert_eq!(unseal_forward(text), expected, "oracle on {text:?}");
        assert_eq!(unseal(text), expected, "unseal on {text:?}");
    }

    fn mismatch(line: usize, recorded: u32, body: &str) -> Result<&'static str, String> {
        Err(format!(
            "line {line}: crc32 mismatch (recorded {recorded:08x}, computed {:08x}) — \
             the file is corrupt or truncated",
            crc32_ieee(body.as_bytes())
        ))
    }

    #[test]
    fn error_texts_are_pinned_against_the_forward_scan() {
        let sealed = seal(BODY.to_string());
        let crc = crc32_ieee(BODY.as_bytes());
        let hex = format!("{crc:08x}");

        // No trailer.
        for text in [
            "",
            "\n",
            "\n\n",
            " \t\n\r\n",
            BODY,
            "crc32",
            "crc32 \n",
            "x\ncrc32\n",
        ] {
            pin(text, Err(MISSING.into()));
        }
        pin(&format!("crc32 {hex}\n{BODY}"), Err(MISSING.into()));

        // Trailing blank and whitespace-only lines, with or without a
        // final newline, are outside the covered body.
        for tail in [
            "",
            "\n",
            "\n\n",
            "  \n",
            "\t\n \n",
            "   ",
            "\r\n",
            "\n\u{a0}\n",
        ] {
            pin(&format!("{sealed}{tail}"), Ok(BODY));
        }
        pin(&sealed[..sealed.len() - 1], Ok(BODY));
        pin(&format!("{BODY}  crc32 {hex} \t\n"), Ok(BODY));

        // A bad trailer, named on its own line.
        let cut = &sealed[..sealed.len() - 3];
        pin(
            cut,
            Err(format!("line 4: bad crc32 trailer {:?}", &hex[..6])),
        );
        pin(
            &format!("{BODY}\n\ncrc32 nothex!\n\n \n"),
            Err("line 6: bad crc32 trailer \"nothex!\"".into()),
        );
        pin(
            &format!("{BODY}crc32 {hex}0\n"),
            Err(format!("line 4: bad crc32 trailer \"{hex}0\"")),
        );

        // A CRC mismatch: a flipped body bit, blank lines inside the
        // covered body, a foreign trailer.
        let mut flipped = sealed.clone().into_bytes();
        flipped[20] ^= 0x01;
        let flipped = String::from_utf8(flipped).unwrap();
        pin(&flipped, mismatch(4, crc, &flipped[..BODY.len()]));
        let spaced = format!("{BODY}\n \ncrc32 {hex}\n\n");
        pin(&spaced, mismatch(6, crc, &format!("{BODY}\n \n")));
        pin("a\nb\ncrc32 00000001\n", mismatch(3, 1, "a\nb\n"));

        // A CRLF-converted file: the trailer parses, the body does not
        // hash to it.
        let converted = sealed.replace('\n', "\r\n");
        pin(&converted, mismatch(4, crc, &BODY.replace('\n', "\r\n")));
        // A body sealed with CRLF verifies as written.
        let crlf = BODY.replace('\n', "\r\n");
        pin(&seal(crlf.clone()), Ok(crlf.as_str()));

        // An empty body: the trailer is line 1 and covers nothing.
        pin(&seal(String::new()), Ok(""));
        pin("crc32 00000000\n", Ok(""));
        pin("crc32 00000001\n", mismatch(1, 1, ""));
        pin("\n\ncrc32 00000000\n", mismatch(3, 0, "\n\n"));
    }

    #[test]
    fn unseal_agrees_with_the_forward_scan_on_every_prefix() {
        // Every truncation point of sealed files (LF, CRLF, blank-padded)
        // gets the oracle's verdict, error text included.
        let sealed = seal(BODY.to_string());
        for text in [
            sealed.clone(),
            sealed.replace('\n', "\r\n"),
            format!("\n{sealed}\n \n\t\n"),
            seal(String::new()),
        ] {
            for end in (0..=text.len()).filter(|&end| text.is_char_boundary(end)) {
                let prefix = &text[..end];
                assert_eq!(unseal(prefix), unseal_forward(prefix), "{prefix:?}");
            }
        }
    }

    #[test]
    fn seal_and_unseal_roundtrip() {
        let sealed = seal(BODY.to_string());
        assert!(sealed.starts_with(BODY));
        assert!(sealed.ends_with('\n'));
        assert_eq!(unseal(&sealed), Ok(BODY));
        // Blank lines after the trailer are outside the covered body.
        assert_eq!(unseal(&format!("{sealed}\n  \n")), Ok(BODY));
        assert_eq!(unseal(&seal(String::new())), Ok(""));
    }

    #[test]
    fn a_missing_trailer_is_named() {
        for text in ["", "\n\n", BODY, "crc32", "crc32 \n"] {
            let err = unseal(text).unwrap_err();
            assert!(err.contains("missing crc32 trailer"), "{text:?}: {err}");
        }
        // A trailer cut short is caught on its own line.
        let sealed = seal(BODY.to_string());
        let err = unseal(&sealed[..sealed.len() - 3]).unwrap_err();
        assert!(err.starts_with("line 4: bad crc32 trailer"), "{err}");
    }

    #[test]
    fn a_mismatch_is_named_with_its_line() {
        let mut bytes = seal(BODY.to_string()).into_bytes();
        bytes[20] ^= 0x01;
        let err = unseal(std::str::from_utf8(&bytes).unwrap()).unwrap_err();
        assert!(err.starts_with("line 4: crc32 mismatch"), "{err}");
        assert!(err.contains("corrupt or truncated"), "{err}");
    }

    #[test]
    fn crlf_is_covered_byte_for_byte() {
        // A body sealed with CRLF line ends verifies as written...
        let crlf = BODY.replace('\n', "\r\n");
        assert_eq!(unseal(&seal(crlf.clone())), Ok(crlf.as_str()));
        // ...but rewriting a sealed LF file to CRLF changes the covered
        // bytes, so it is named corrupt instead of parsed.
        let converted = seal(BODY.to_string()).replace('\n', "\r\n");
        let err = unseal(&converted).unwrap_err();
        assert!(err.contains("crc32 mismatch"), "{err}");
    }

    #[test]
    fn load_recovering_falls_back_to_prev_and_keeps_the_primary_error() {
        let dir = std::env::temp_dir().join(format!("hi-core-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.rec");
        let load = |p: &Path| -> Result<String, String> {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            unseal(&text)
                .map(str::to_string)
                .map_err(|e| format!("{}: {e}", p.display()))
        };
        write_atomic(&path, seal("first\n".into()).as_bytes()).unwrap();
        write_atomic(&path, seal("second\n".into()).as_bytes()).unwrap();
        assert!(!sibling(&path, ".tmp").exists());
        assert_eq!(load_recovering(&path, load), Ok(("second\n".into(), None)));

        // A torn primary falls back to the rotation, reporting why.
        std::fs::write(&path, "seco").unwrap();
        let (value, fallback) = load_recovering(&path, load).unwrap();
        assert_eq!(value, "first\n");
        let note = fallback.unwrap();
        assert!(note.contains("state.rec: missing crc32 trailer"), "{note}");

        // Both copies bad: the primary's error, not the rotation's.
        std::fs::write(prev_path(&path), "garbage\n").unwrap();
        let err = load_recovering(&path, load).unwrap_err();
        assert!(err.starts_with(&path.display().to_string()), "{err}");
        assert!(!err.contains(".prev"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
