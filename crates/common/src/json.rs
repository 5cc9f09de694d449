//! The workspace's one hand-rolled JSON helper: an escaper for string
//! values and field extractors over the flat objects the workspace writes
//! itself (calibration profiles, query reports, bench rows, the live
//! endpoint's `/queries` payload). Not a general parser — keys are found
//! by text search, so a key must not also occur inside an earlier string
//! value of the same object.

use std::fmt::Write as _;

/// Escapes `s` for use inside a JSON string literal: quotes, backslashes
/// and every control character (`\n`, `\r`, `\t` by name, the rest as
/// `\u00XX`). [`str_field`] is the exact inverse.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The text following `"key":` in `obj`, leading whitespace skipped.
fn value_start<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let i = obj.find(&pat)?;
    Some(obj[i + pat.len()..].trim_start())
}

/// Extracts and unescapes the string value of `"key":"…"`; `None` when the
/// key is absent, the value is not a string, or the string is unterminated
/// or carries a malformed `\u` escape.
pub fn str_field(obj: &str, key: &str) -> Option<String> {
    let mut chars = value_start(obj, key)?.strip_prefix('"')?.chars();
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
}

/// Extracts the numeric value of `"key":<number>`.
pub fn num_field(obj: &str, key: &str) -> Option<f64> {
    let rest = value_start(obj, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the value of `"key":true|false`.
pub fn bool_field(obj: &str, key: &str) -> Option<bool> {
    let rest = value_start(obj, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fields_are_found_by_key_and_typed() {
        let obj = r#"{"name":"a \"b\"\n","n": -1.5e3,"ok":true,"off":false,"z":null}"#;
        assert_eq!(str_field(obj, "name").as_deref(), Some("a \"b\"\n"));
        assert_eq!(num_field(obj, "n"), Some(-1500.0));
        assert_eq!(bool_field(obj, "ok"), Some(true));
        assert_eq!(bool_field(obj, "off"), Some(false));
        assert_eq!(bool_field(obj, "z"), None);
        assert_eq!(str_field(obj, "n"), None, "a number is not a string");
        assert_eq!(num_field(obj, "name"), None, "a string is not a number");
        assert_eq!(str_field(obj, "missing"), None);
        assert_eq!(str_field(r#"{"k":"open"#, "k"), None, "unterminated");
        assert_eq!(str_field(r#"{"k":"\u12"}"#, "k"), None, "short \\u");
    }

    #[test]
    fn every_control_character_round_trips() {
        let s: String = (0u8..0x20)
            .map(char::from)
            .chain("\"\\/é\u{7f}".chars())
            .collect();
        let obj = format!("{{\"k\":\"{}\"}}", escape(&s));
        assert!(obj.bytes().all(|b| b >= 0x20), "escaped text is printable");
        assert_eq!(str_field(&obj, "k"), Some(s));
    }

    proptest! {
        #[test]
        fn str_field_inverts_escape(
            codes in proptest::collection::vec(0u32..0x250, 0..40),
        ) {
            // Dense in the characters that matter: controls, `"` (0x22),
            // `\` (0x5c), plus some multi-byte text.
            let s: String = codes.into_iter().filter_map(char::from_u32).collect();
            let obj = format!("{{\"a\":1,\"k\":\"{}\",\"z\":\"tail\"}}", escape(&s));
            prop_assert_eq!(str_field(&obj, "k"), Some(s));
            prop_assert_eq!(str_field(&obj, "z"), Some("tail".to_string()));
        }
    }
}
