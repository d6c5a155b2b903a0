//! Offline stand-in for `serde_derive`.
//!
//! The build container has no crates.io access (so no `syn`/`quote` either);
//! this macro parses the item declaration directly from the
//! [`proc_macro::TokenStream`] and emits impls that talk JSON to the shim
//! `serde`'s writer and parser in one pass, with no intermediate tree:
//!
//! * `Serialize` writes the value straight into the serializer's
//!   `serde::__private::Writer`. Keys, braces, commas and unit-variant tags
//!   are known at expansion time, so each run of them is one string literal
//!   (`{"trial":`, `,"benchmark":`, `}}`); fields go through their own
//!   `Serialize` impls into the same buffer.
//! * `Deserialize` reads from the deserializer's `serde::__private::Parser`.
//!   A struct matches each key (a slice of the input) against its field
//!   names, decodes the value into that field's slot, and skips unknown
//!   keys; fields may come in any order, a repeated key keeps its first
//!   value, and every field is required. An enum reads its tag, then the
//!   payload of that variant only.
//!
//! Supported shapes are exactly what this workspace derives on: structs with
//! named fields, newtype structs (transparent), unit/newtype/struct-variant
//! enums (externally tagged), `#[serde(with = "path")]` on named fields, and
//! `#[serde(untagged)]` on all-newtype enums (Deserialize only; it parses the
//! value into a `Content` tree and tries each variant's `FromContent`).
//! Const generics are carried through; anything unsupported fails with a
//! `compile_error!` naming the construct.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------------
// Parsed shape of the deriving item.

struct Input {
    name: String,
    /// Generic parameter list verbatim (without the angle brackets), e.g.
    /// `const M : u64`. Empty when the item is not generic.
    generic_params: String,
    /// Matching argument list, e.g. `M`.
    generic_args: String,
    kind: Kind,
    untagged: bool,
}

enum Kind {
    /// Struct with named fields.
    Struct(Vec<Field>),
    /// One-field tuple struct, transparent on the wire.
    Newtype,
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
    /// Module path from `#[serde(with = "path")]`, if present.
    with: Option<String>,
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Shape {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

// ---------------------------------------------------------------------------
// Token utilities.

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

fn ident_of(t: &TokenTree) -> Option<String> {
    match t {
        TokenTree::Ident(i) => Some(i.to_string()),
        _ => None,
    }
}

/// Splits a token slice on commas that sit outside nested `<...>` pairs.
/// Commas inside parenthesised/bracketed groups never show up because a
/// group is a single `TokenTree`.
fn split_top_level_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    let mut angle_depth = 0i32;
    for t in tokens {
        if is_punct(t, '<') {
            angle_depth += 1;
        } else if is_punct(t, '>') {
            angle_depth -= 1;
        } else if is_punct(t, ',') && angle_depth == 0 {
            out.push(std::mem::take(&mut current));
            continue;
        }
        current.push(t.clone());
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Extracts `with = "path"` / `untagged` from a `#[serde(...)]` attribute
/// body; returns `(with, untagged)`.
fn parse_serde_attr(group: &proc_macro::Group) -> (Option<String>, bool) {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    if tokens.first().and_then(ident_of).as_deref() != Some("serde") {
        return (None, false);
    }
    let Some(TokenTree::Group(inner)) = tokens.get(1) else {
        return (None, false);
    };
    let inner: Vec<TokenTree> = inner.stream().into_iter().collect();
    let mut with = None;
    let mut untagged = false;
    let mut i = 0;
    while i < inner.len() {
        match ident_of(&inner[i]).as_deref() {
            Some("untagged") => untagged = true,
            Some("with") if i + 2 < inner.len() && is_punct(&inner[i + 1], '=') => {
                if let TokenTree::Literal(lit) = &inner[i + 2] {
                    let s = lit.to_string();
                    with = Some(s.trim_matches('"').to_string());
                    i += 2;
                }
            }
            _ => {}
        }
        i += 1;
    }
    (with, untagged)
}

/// Parses the fields of a named-fields brace group.
fn parse_named_fields(group: &proc_macro::Group) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    for segment in split_top_level_commas(&tokens) {
        let mut with = None;
        let mut i = 0;
        // Attributes.
        while i + 1 < segment.len() && is_punct(&segment[i], '#') {
            if let TokenTree::Group(g) = &segment[i + 1] {
                if let (Some(w), _) = parse_serde_attr(g) {
                    with = Some(w);
                }
            }
            i += 2;
        }
        // Visibility.
        if segment.get(i).and_then(ident_of).as_deref() == Some("pub") {
            i += 1;
            if matches!(segment.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis) {
                i += 1;
            }
        }
        let name = segment.get(i).and_then(ident_of).ok_or_else(|| "expected field name".to_string())?;
        fields.push(Field { name, with });
    }
    Ok(fields)
}

/// Checks that a tuple struct/variant paren group holds exactly one field.
fn newtype(group: &proc_macro::Group, name: &str) -> Result<(), String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    match split_top_level_commas(&tokens).len() {
        1 => Ok(()),
        n => Err(format!("{name}: tuple shapes with {n} fields are not supported (only one-field newtypes)")),
    }
}

fn parse_variants(group: &proc_macro::Group) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    for segment in split_top_level_commas(&tokens) {
        let mut i = 0;
        while i + 1 < segment.len() && is_punct(&segment[i], '#') {
            i += 2; // skip attributes (doc comments)
        }
        let name = segment.get(i).and_then(ident_of).ok_or_else(|| "expected variant name".to_string())?;
        i += 1;
        let shape = match segment.get(i) {
            None => Shape::Unit,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                newtype(g, &name)?;
                Shape::Newtype
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::Struct(parse_named_fields(g)?),
            Some(t) if is_punct(t, '=') => return Err(format!("discriminant on variant {name} is not supported")),
            Some(other) => return Err(format!("unexpected token {other} after variant {name}")),
        };
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

/// Parses `<...>` generics starting at `tokens[i]` (which must be `<`);
/// returns (params, args, index-after-`>`).
fn parse_generics(tokens: &[TokenTree], start: usize) -> Result<(String, String, usize), String> {
    let mut depth = 0i32;
    let mut i = start;
    let mut inner: Vec<TokenTree> = Vec::new();
    loop {
        let t = tokens.get(i).ok_or_else(|| "unterminated generics".to_string())?;
        if is_punct(t, '<') {
            depth += 1;
            if depth > 1 {
                inner.push(t.clone());
            }
        } else if is_punct(t, '>') {
            depth -= 1;
            if depth == 0 {
                i += 1;
                break;
            }
            inner.push(t.clone());
        } else {
            inner.push(t.clone());
        }
        i += 1;
    }
    let params = inner.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(" ");
    let mut args = Vec::new();
    for segment in split_top_level_commas(&inner) {
        let arg = match segment.first() {
            Some(t) if is_punct(t, '\'') => {
                let life = segment.get(1).and_then(ident_of).ok_or("bad lifetime param")?;
                format!("'{life}")
            }
            Some(t) if ident_of(t).as_deref() == Some("const") => segment.get(1).and_then(ident_of).ok_or("bad const param")?,
            Some(t) => ident_of(t).ok_or_else(|| format!("unsupported generic param starting at {t}"))?,
            None => continue,
        };
        args.push(arg);
    }
    Ok((params, args.join(", "), i))
}

fn parse(input: TokenStream) -> Result<Input, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut untagged = false;
    let mut i = 0;
    let is_enum = loop {
        match tokens.get(i) {
            None => return Err("no struct or enum found".into()),
            Some(t) if is_punct(t, '#') => {
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    let (_, u) = parse_serde_attr(g);
                    untagged |= u;
                }
                i += 2;
            }
            Some(t) => match ident_of(t).as_deref() {
                Some("struct") => break false,
                Some("enum") => break true,
                _ => i += 1, // visibility and such
            },
        }
    };
    i += 1;
    let name = tokens.get(i).and_then(ident_of).ok_or_else(|| "expected item name".to_string())?;
    i += 1;
    let (generic_params, generic_args) = if matches!(tokens.get(i), Some(t) if is_punct(t, '<')) {
        let (p, a, next) = parse_generics(&tokens, i)?;
        i = next;
        (p, a)
    } else {
        (String::new(), String::new())
    };
    // Skip a `where` clause if one ever appears.
    if tokens.get(i).and_then(ident_of).as_deref() == Some("where") {
        return Err("where clauses are not supported".into());
    }
    let kind = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if is_enum {
                Kind::Enum(parse_variants(g)?)
            } else {
                Kind::Struct(parse_named_fields(g)?)
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis && !is_enum => {
            newtype(g, &name)?;
            Kind::Newtype
        }
        other => return Err(format!("unsupported item body: {other:?}")),
    };
    Ok(Input { name, generic_params, generic_args, kind, untagged })
}

// ---------------------------------------------------------------------------
// Code generation.

impl Input {
    /// `impl <params> Trait for Name<args>` header fragments; `extra` adds
    /// parameters (the `'de` of Deserialize).
    fn impl_header(&self, extra: &str) -> (String, String) {
        let params = match (extra.is_empty(), self.generic_params.is_empty()) {
            (true, true) => String::new(),
            (true, false) => format!("<{}>", self.generic_params),
            (false, true) => format!("<{extra}>"),
            (false, false) => format!("<{extra}, {}>", self.generic_params),
        };
        let target = if self.generic_args.is_empty() {
            self.name.clone()
        } else {
            format!("{}<{}>", self.name, self.generic_args)
        };
        (params, target)
    }
}

/// Straight-line encoder body. JSON text known at expansion time (keys,
/// braces, commas, variant tags) is merged into as few `raw` calls as
/// possible; each value is handed to the same writer in between.
struct Emit {
    code: String,
    text: String,
}

impl Emit {
    fn new() -> Self {
        Emit { code: String::new(), text: String::new() }
    }

    fn text(&mut self, s: &str) {
        self.text.push_str(s);
    }

    fn value(&mut self, value_expr: &str, with: &Option<String>) {
        self.flush();
        let encoder = match with {
            Some(path) => format!("{path}::serialize"),
            None => "serde::Serialize::serialize".to_string(),
        };
        self.code.push_str(&format!("{encoder}({value_expr}, &mut *__w)?;\n"));
    }

    fn flush(&mut self) {
        if !self.text.is_empty() {
            self.code.push_str(&format!("__w.raw({:?});\n", self.text));
            self.text.clear();
        }
    }

    /// Named fields as a JSON object; `accessor` maps a field name to its
    /// value expression (e.g. `&self.name` or a match binder).
    fn object(&mut self, fields: &[Field], accessor: impl Fn(&str) -> String) {
        self.text("{");
        for (i, f) in fields.iter().enumerate() {
            self.text(&format!("{}\"{}\":", if i > 0 { "," } else { "" }, f.name));
            self.value(&accessor(&f.name), &f.with);
        }
        self.text("}");
    }

    fn finish(mut self) -> String {
        self.flush();
        self.code
    }
}

/// `body` run against the serializer's writer.
fn write_json(body: &str) -> String {
    format!("__s.write_json(|__w| {{\n{body}::core::result::Result::Ok(())\n}})")
}

fn gen_serialize(input: &Input) -> Result<String, String> {
    if input.untagged {
        return Err("#[serde(untagged)] Serialize is not supported by the shim derive".into());
    }
    let (params, target) = input.impl_header("");
    let body = match &input.kind {
        Kind::Struct(fields) => {
            let mut e = Emit::new();
            e.object(fields, |n| format!("&self.{n}"));
            write_json(&e.finish())
        }
        Kind::Newtype => "serde::Serialize::serialize(&self.0, __s)".to_string(),
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let name = &input.name;
                let vname = &v.name;
                let mut e = Emit::new();
                let pattern = match &v.shape {
                    Shape::Unit => {
                        e.text(&format!("\"{vname}\""));
                        format!("{name}::{vname}")
                    }
                    Shape::Newtype => {
                        e.text(&format!("{{\"{vname}\":"));
                        e.value("__f0", &None);
                        e.text("}");
                        format!("{name}::{vname}(__f0)")
                    }
                    Shape::Struct(fields) => {
                        let binders: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        e.text(&format!("{{\"{vname}\":"));
                        e.object(fields, |n| n.to_string());
                        e.text("}");
                        format!("{name}::{vname} {{ {} }}", binders.join(", "))
                    }
                };
                arms.push_str(&format!("{pattern} => {{\n{}}}\n", e.finish()));
            }
            write_json(&format!("match self {{\n{arms}}}\n"))
        }
    };
    Ok(format!(
        "#[automatically_derived]\n\
         impl {params} serde::Serialize for {target} {{\n\
             fn serialize<__S: serde::Serializer>(&self, __s: __S) -> ::core::result::Result<__S::Ok, __S::Error> {{\n\
                 {body}\n\
             }}\n\
         }}\n"
    ))
}

/// Expression decoding one field's value from `__p`.
fn field_decoder(with: &Option<String>) -> String {
    match with {
        Some(path) => format!("{path}::deserialize(__p)"),
        None => "serde::Deserialize::deserialize(__p)".to_string(),
    }
}

/// Block decoding a JSON object into `type_path { fields }`, evaluating to
/// `Result<_, serde::__private::Error>`. Keys may come in any order;
/// unknown keys are skipped.
fn named_body(type_path: &str, fields: &[Field]) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = Vec::new();
    for (i, f) in fields.iter().enumerate() {
        let name = &f.name;
        slots.push_str(&format!("let mut __v{i} = ::core::option::Option::None;\n"));
        arms.push_str(&format!(
            "\"{name}\" => serde::__private::fill(&mut __v{i}, __p, \"{name}\", |__p| {}),\n",
            field_decoder(&f.with)
        ));
        inits.push(format!("{name}: serde::__private::take(__v{i}, \"{name}\")?"));
    }
    format!(
        "{{\n{slots}__p.object(|__p, __k| match __k {{\n{arms}_ => __p.skip_value(),\n}})?;\n\
         ::core::result::Result::Ok({type_path} {{ {} }})\n}}",
        inits.join(", ")
    )
}

fn gen_deserialize(input: &Input) -> Result<String, String> {
    let name = &input.name;
    let read = |body: String| format!("__d.read_json(|__p| {{\n{body}\n}})");
    let body = match &input.kind {
        Kind::Struct(fields) => read(named_body(name, fields)),
        Kind::Newtype => format!("::core::result::Result::Ok({name}(serde::Deserialize::deserialize(__d)?))"),
        Kind::Enum(variants) if input.untagged => {
            let mut attempts = String::new();
            for v in variants {
                let vname = &v.name;
                match v.shape {
                    Shape::Newtype => attempts.push_str(&format!(
                        "if let ::core::result::Result::Ok(__v) = serde::__private::FromContent::from_content(&__c) {{\n\
                             return ::core::result::Result::Ok({name}::{vname}(__v));\n\
                         }}\n"
                    )),
                    _ => return Err(format!("untagged enums only support newtype variants (variant {vname})")),
                }
            }
            format!(
                "let __c = __d.content()?;\n{attempts}::core::result::Result::Err(<__D::Error as serde::de::Error>::custom(\
                 \"data matched no variant of untagged enum {name}\"))"
            )
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let need_payload = format!(
                    "if !__payload {{\nreturn ::core::result::Result::Err(serde::__private::no_payload(\"{vname}\"));\n}}\n"
                );
                let arm = match &v.shape {
                    Shape::Unit => format!("if __payload {{\n__p.skip_value()?;\n}}\n{name}::{vname}"),
                    Shape::Newtype => format!("{need_payload}{name}::{vname}(serde::Deserialize::deserialize(&mut *__p)?)"),
                    Shape::Struct(fields) => {
                        format!("{need_payload}{}?", named_body(&format!("{name}::{vname}"), fields))
                    }
                };
                arms.push_str(&format!("\"{vname}\" => {{\n{arm}\n}}\n"));
            }
            read(format!(
                "let (__tag, __payload) = __p.variant()?;\n\
                 let __v = match &*__tag {{\n{arms}\
                 __other => return ::core::result::Result::Err(serde::__private::unknown_variant(__other, \"{name}\")),\n}};\n\
                 if __payload {{\n__p.variant_end()?;\n}}\n\
                 ::core::result::Result::Ok(__v)"
            ))
        }
    };
    let (_, target) = input.impl_header("");
    let (de_params, _) = input.impl_header("'de");
    Ok(format!(
        "#[automatically_derived]\n\
         impl {de_params} serde::Deserialize<'de> for {target} {{\n\
             fn deserialize<__D: serde::Deserializer<'de>>(__d: __D) -> ::core::result::Result<Self, __D::Error> {{\n\
                 {body}\n\
             }}\n\
         }}\n"
    ))
}

fn expand(input: TokenStream, gen: fn(&Input) -> Result<String, String>) -> TokenStream {
    let code = parse(input).and_then(|parsed| gen(&parsed));
    match code {
        Ok(code) => code.parse().expect("shim serde_derive generated invalid Rust"),
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}
