//! Derive macros for the stand-in `serde`: `Serialize::to_value` and
//! `Deserialize::from_value`.
//!
//! Without `syn`, the item is parsed straight from the token stream. Only the
//! shapes the repository declares are accepted — non-generic structs with
//! named fields and enums with unit, tuple and struct variants — and only the
//! attributes it writes: `tag`, `rename_all = "snake_case"`, `untagged`,
//! `default`, `skip_serializing_if`, `rename`. Anything else is a compile
//! error that names the unsupported construct.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default)]
struct Attrs {
    tag: Option<String>,
    rename_all_snake: bool,
    untagged: bool,
    default: bool,
    skip_serializing_if: Option<String>,
    rename: Option<String>,
}

struct Field {
    ident: String,
    attrs: Attrs,
}

impl Field {
    fn key(&self) -> &str {
        self.attrs.rename.as_deref().unwrap_or(&self.ident)
    }
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    ident: String,
    attrs: Attrs,
    shape: Shape,
}

enum Item {
    Struct {
        name: String,
        fields: Vec<Field>,
    },
    Enum {
        name: String,
        attrs: Attrs,
        variants: Vec<Variant>,
    },
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn is_punct(t: Option<&TokenTree>, c: char) -> bool {
    matches!(t, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

fn unquote(lit: &str) -> Result<String, String> {
    lit.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a plain string literal, found {lit}"))
}

/// Consume leading `#[...]` attributes, folding every `#[serde(...)]` into
/// the result and skipping the rest (doc comments, `#[default]`, ...).
fn take_attrs(tokens: &mut Tokens) -> Result<Attrs, String> {
    let mut attrs = Attrs::default();
    while is_punct(tokens.peek(), '#') {
        tokens.next();
        let Some(TokenTree::Group(group)) = tokens.next() else {
            return Err("expected [...] after #".into());
        };
        let mut inner = group.stream().into_iter();
        match inner.next() {
            Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
            _ => continue,
        }
        let Some(TokenTree::Group(args)) = inner.next() else {
            return Err("expected serde(...)".into());
        };
        let mut args = args.stream().into_iter().peekable();
        while let Some(tok) = args.next() {
            let TokenTree::Ident(key) = tok else {
                return Err(format!("unexpected token in serde attribute: {tok}"));
            };
            let value = if is_punct(args.peek(), '=') {
                args.next();
                match args.next() {
                    Some(TokenTree::Literal(l)) => Some(unquote(&l.to_string())?),
                    other => return Err(format!("expected a literal, found {other:?}")),
                }
            } else {
                None
            };
            match (key.to_string().as_str(), value) {
                ("tag", Some(v)) => attrs.tag = Some(v),
                ("rename_all", Some(v)) if v == "snake_case" => attrs.rename_all_snake = true,
                ("untagged", None) => attrs.untagged = true,
                ("default", None) => attrs.default = true,
                ("skip_serializing_if", Some(v)) => attrs.skip_serializing_if = Some(v),
                ("rename", Some(v)) => attrs.rename = Some(v),
                (k, v) => return Err(format!("unsupported serde attribute `{k}` ({v:?})")),
            }
            if is_punct(args.peek(), ',') {
                args.next();
            }
        }
    }
    Ok(attrs)
}

/// Skip `pub`, `pub(crate)`, `pub(in path)`.
fn skip_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// Skip one type (or discriminant expression) up to a comma outside angle
/// brackets; bracketed groups are single token trees already.
fn skip_to_comma(tokens: &mut Tokens) {
    let mut angle = 0i32;
    while let Some(tok) = tokens.peek() {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => break,
                _ => {}
            }
        }
        tokens.next();
    }
    if is_punct(tokens.peek(), ',') {
        tokens.next();
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    while tokens.peek().is_some() {
        let attrs = take_attrs(&mut tokens)?;
        skip_visibility(&mut tokens);
        let Some(TokenTree::Ident(ident)) = tokens.next() else {
            return Err("expected a field name".into());
        };
        if !is_punct(tokens.next().as_ref(), ':') {
            return Err(format!("expected `:` after field `{ident}`"));
        }
        skip_to_comma(&mut tokens);
        fields.push(Field {
            ident: ident.to_string(),
            attrs,
        });
    }
    Ok(fields)
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut tokens = stream.into_iter().peekable();
    let mut n = 0;
    while tokens.peek().is_some() {
        n += 1;
        skip_to_comma(&mut tokens);
    }
    n
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    while tokens.peek().is_some() {
        let attrs = take_attrs(&mut tokens)?;
        let Some(TokenTree::Ident(ident)) = tokens.next() else {
            return Err("expected a variant name".into());
        };
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                tokens.next();
                Shape::Named(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                tokens.next();
                Shape::Tuple(n)
            }
            _ => Shape::Unit,
        };
        // An explicit discriminant, then the separating comma.
        skip_to_comma(&mut tokens);
        variants.push(Variant {
            ident: ident.to_string(),
            attrs,
            shape,
        });
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut tokens = input.into_iter().peekable();
    let attrs = take_attrs(&mut tokens)?;
    skip_visibility(&mut tokens);
    let Some(TokenTree::Ident(kind)) = tokens.next() else {
        return Err("expected `struct` or `enum`".into());
    };
    let Some(TokenTree::Ident(name)) = tokens.next() else {
        return Err("expected the type's name".into());
    };
    let name = name.to_string();
    let body = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            return Err(format!("{name}: generic types are not supported"))
        }
        _ => {
            return Err(format!(
                "{name}: only braced structs and enums are supported"
            ))
        }
    };
    match kind.to_string().as_str() {
        "struct" => Ok(Item::Struct {
            name,
            fields: parse_named_fields(body)?,
        }),
        "enum" => Ok(Item::Enum {
            name,
            attrs,
            variants: parse_variants(body)?,
        }),
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

fn snake_case(ident: &str) -> String {
    let mut out = String::new();
    for (i, c) in ident.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

fn variant_key(v: &Variant, container: &Attrs) -> String {
    match &v.attrs.rename {
        Some(r) => r.clone(),
        None if container.rename_all_snake => snake_case(&v.ident),
        None => v.ident.clone(),
    }
}

/// Statements inserting `fields` into the map `m`; `access` turns a field
/// name into the expression holding a reference to it.
fn insert_fields(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut out = String::new();
    for f in fields {
        let value = access(&f.ident);
        let insert = format!(
            "m.insert({:?}, ::serde::Serialize::to_value({value}));",
            f.key()
        );
        match &f.attrs.skip_serializing_if {
            Some(pred) => out.push_str(&format!("if !{pred}({value}) {{ {insert} }}")),
            None => out.push_str(&insert),
        }
    }
    out
}

/// `Type { a: ..., b: ... }` field initialisers reading from the map `m`.
fn read_fields(fields: &[Field]) -> String {
    let mut out = String::new();
    for f in fields {
        let helper = if f.attrs.default {
            "field_or_default"
        } else {
            "field"
        };
        out.push_str(&format!(
            "{}: ::serde::__private::{helper}(m, {:?})?,",
            f.ident,
            f.key()
        ));
    }
    out
}

fn bindings(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("x{i}")).collect()
}

fn serialize_body(item: &Item) -> String {
    match item {
        Item::Struct { fields, .. } => format!(
            "let mut m = ::serde::Map::with_capacity({});{} ::serde::Value::Object(m)",
            fields.len(),
            insert_fields(fields, |f| format!("&self.{f}"))
        ),
        Item::Enum {
            name,
            attrs,
            variants,
        } => {
            let mut arms = String::new();
            for v in variants {
                let key = variant_key(v, attrs);
                let (pattern, content) = match &v.shape {
                    Shape::Unit => (String::new(), None),
                    Shape::Tuple(n) => {
                        let xs = bindings(*n);
                        let content = if *n == 1 {
                            "::serde::Serialize::to_value(x0)".to_string()
                        } else {
                            format!(
                                "::serde::Value::Array(vec![{}])",
                                xs.iter()
                                    .map(|x| format!("::serde::Serialize::to_value({x})"))
                                    .collect::<Vec<_>>()
                                    .join(",")
                            )
                        };
                        (format!("({})", xs.join(",")), Some(content))
                    }
                    Shape::Named(fields) => {
                        let names: Vec<&str> = fields.iter().map(|f| f.ident.as_str()).collect();
                        (format!("{{ {} }}", names.join(",")), None)
                    }
                };
                let body = if let Some(tag) = &attrs.tag {
                    let fields = match &v.shape {
                        Shape::Named(fields) => insert_fields(fields, str::to_string),
                        Shape::Unit => String::new(),
                        Shape::Tuple(_) => {
                            return format!(
                                "compile_error!(\"{name}::{}: tuple variants cannot be internally tagged\")",
                                v.ident
                            )
                        }
                    };
                    format!(
                        "let mut m = ::serde::Map::new(); \
                         m.insert({tag:?}, ::serde::Value::String({key:?}.to_string())); \
                         {fields} ::serde::Value::Object(m)"
                    )
                } else if attrs.untagged {
                    match (&v.shape, content) {
                        (Shape::Unit, _) => "::serde::Value::Null".to_string(),
                        (Shape::Tuple(_), Some(c)) => c,
                        (Shape::Named(fields), _) => format!(
                            "let mut m = ::serde::Map::new(); {} ::serde::Value::Object(m)",
                            insert_fields(fields, str::to_string)
                        ),
                        (Shape::Tuple(_), None) => unreachable!("tuple variants carry content"),
                    }
                } else {
                    let content = match (&v.shape, content) {
                        (Shape::Unit, _) => None,
                        (Shape::Named(fields), _) => Some(format!(
                            "{{ let mut m = ::serde::Map::new(); {} ::serde::Value::Object(m) }}",
                            insert_fields(fields, str::to_string)
                        )),
                        (Shape::Tuple(_), c) => c,
                    };
                    match content {
                        None => format!("::serde::Value::String({key:?}.to_string())"),
                        Some(c) => format!(
                            "let mut outer = ::serde::Map::with_capacity(1); \
                             outer.insert({key:?}, {c}); ::serde::Value::Object(outer)"
                        ),
                    }
                };
                arms.push_str(&format!("{name}::{}{pattern} => {{ {body} }}", v.ident));
            }
            format!("match self {{ {arms} }}")
        }
    }
}

fn deserialize_body(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => format!(
            "let m = ::serde::__private::object(value, {name:?})?; Ok({name} {{ {} }})",
            read_fields(fields)
        ),
        Item::Enum {
            name,
            attrs,
            variants,
        } => {
            if attrs.untagged {
                let mut tries = String::new();
                for v in variants {
                    let attempt = match &v.shape {
                        Shape::Unit => format!(
                            "if value.is_null() {{ return Ok({name}::{}); }}",
                            v.ident
                        ),
                        Shape::Tuple(1) => format!(
                            "if let Ok(x) = ::serde::Deserialize::from_value(value) {{ return Ok({name}::{}(x)); }}",
                            v.ident
                        ),
                        Shape::Tuple(_) => format!(
                            "compile_error!(\"{name}::{}: untagged tuple variants are not supported\");",
                            v.ident
                        ),
                        Shape::Named(fields) => format!(
                            "if let Some(m) = value.as_object() {{ \
                               let attempt = (|| -> Result<{name}, ::serde::Error> {{ Ok({name}::{} {{ {} }}) }})(); \
                               if let Ok(v) = attempt {{ return Ok(v); }} }}",
                            v.ident,
                            read_fields(fields)
                        ),
                    };
                    tries.push_str(&attempt);
                }
                return format!("{tries} Err(::serde::__private::no_variant_matched({name:?}))");
            }
            let mut arms = String::new();
            for v in variants {
                let key = variant_key(v, attrs);
                let build = match (&v.shape, attrs.tag.is_some()) {
                    (Shape::Unit, _) => format!("Ok({name}::{})", v.ident),
                    (Shape::Named(fields), true) => {
                        format!("Ok({name}::{} {{ {} }})", v.ident, read_fields(fields))
                    }
                    (Shape::Named(fields), false) => format!(
                        "{{ let m = ::serde::__private::object(::serde::__private::content(content, {key:?})?, {key:?})?; \
                           Ok({name}::{} {{ {} }}) }}",
                        v.ident,
                        read_fields(fields)
                    ),
                    (Shape::Tuple(_), true) => format!(
                        "compile_error!(\"{name}::{}: tuple variants cannot be internally tagged\")",
                        v.ident
                    ),
                    (Shape::Tuple(1), false) => format!(
                        "Ok({name}::{}(::serde::Deserialize::from_value(::serde::__private::content(content, {key:?})?)?))",
                        v.ident
                    ),
                    (Shape::Tuple(n), false) => format!(
                        "{{ let items = ::serde::__private::tuple(::serde::__private::content(content, {key:?})?, {n}, {key:?})?; \
                           Ok({name}::{}({})) }}",
                        v.ident,
                        (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                            .collect::<Vec<_>>()
                            .join(",")
                    ),
                };
                arms.push_str(&format!("{key:?} => {build},"));
            }
            let head = match &attrs.tag {
                Some(tag) => format!(
                    "let m = ::serde::__private::object(value, {name:?})?; \
                     let variant = ::serde::__private::tag(m, {tag:?}, {name:?})?;"
                ),
                None => format!(
                    "let (variant, content) = ::serde::__private::variant(value, {name:?})?; \
                     let _ = &content;"
                ),
            };
            format!(
                "{head} match variant {{ {arms} other => Err(::serde::__private::unknown_variant(other, {name:?})) }}"
            )
        }
    }
}

fn item_name(item: &Item) -> &str {
    match item {
        Item::Struct { name, .. } | Item::Enum { name, .. } => name,
    }
}

fn expand(input: TokenStream, render: impl Fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => render(&item),
        Err(msg) => format!(
            "compile_error!({:?});",
            format!("serde stand-in derive: {msg}")
        ),
    };
    code.parse().expect("generated impl parses")
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, |item| {
        format!(
            "#[automatically_derived] impl ::serde::Serialize for {} {{ \
               fn to_value(&self) -> ::serde::Value {{ {} }} }}",
            item_name(item),
            serialize_body(item)
        )
    })
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, |item| {
        format!(
            "#[automatically_derived] impl<'de> ::serde::Deserialize<'de> for {} {{ \
               fn from_value(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ {} }} }}",
            item_name(item),
            deserialize_body(item)
        )
    })
}
