//! Just enough JSON: an ordered object writer for the report lines, and a
//! reader for the self-tests to check `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write;

/// An object under construction; keys print in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Adds a number; non-finite values print as `null`.
    pub fn num(mut self, key: &str, v: f64) -> Self {
        let text = if v.is_finite() { format!("{v}") } else { "null".into() };
        self.0.push((key.into(), text));
        self
    }

    /// Adds a string.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.0.push((key.into(), quote(v)));
        self
    }

    /// Adds a boolean.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.0.push((key.into(), v.to_string()));
        self
    }

    /// Adds a nested object.
    pub fn obj(mut self, key: &str, v: Obj) -> Self {
        self.0.push((key.into(), v.render()));
        self
    }

    /// The object as one line of JSON.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {v}", quote(k));
        }
        out.push('}');
        out
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (keys sorted).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string inside, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number inside, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(m));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    let v = self.value()?;
                    if m.insert(k.clone(), v).is_some() {
                        return Err(format!("duplicate key {k}"));
                    }
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(m));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Arr(a));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Value::Null)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                text.parse().map(Value::Num).map_err(|_| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape whole: both are
            // ASCII, so the run is valid UTF-8 on its own.
            let run = self.s[self.i..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let text =
                std::str::from_utf8(&self.s[self.i..self.i + run]).map_err(|e| e.to_string())?;
            out.push_str(text);
            self.i += run + 1;
            if self.s[self.i - 1] == b'"' {
                return Ok(out);
            }
            let e = *self.s.get(self.i).ok_or("unterminated escape")?;
            self.i += 1;
            match e {
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                    let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.i += 4;
                }
                other => out.push(other as char),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_an_object() {
        let o = Obj::new()
            .num("a", 1.5)
            .str("b", "x\"y")
            .bool("c", true)
            .obj("d", Obj::new().num("e", 2.0));
        let v = parse(&o.render()).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x\"y"));
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d").and_then(|d| d.get("e")).and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn rejects_duplicates_and_trailing_data() {
        assert!(parse(r#"{"a": 1, "a": 2}"#).is_err());
        assert!(parse("[1] 2").is_err());
        assert_eq!(
            parse(r#"["é", null]"#).unwrap(),
            Value::Arr(vec![Value::Str("é".into()), Value::Null])
        );
    }
}
