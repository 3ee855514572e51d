//! FNV-keyed per-file facts cache.
//!
//! [`crate::rules::analyze_file`] is pure in `(path, source, config)`,
//! so its [`FileFacts`] can be reused whenever the source bytes hash
//! the same and neither the tool version nor the rule table changed.
//! The cache is one line-oriented file under `target/` (next to the
//! other build products), keyed by FNV-1a of the source bytes and
//! stamped with [`crate::config::Config::fingerprint`]. A stale stamp
//! discards the whole cache; a corrupt or truncated entry discards
//! just that entry. The cross-file graph passes re-run every time —
//! they are cheap once the per-file facts are hot.

use crate::config::Rule;
use crate::graph::{BannedSite, CallKind, CallSite, FileFacts, FnFact, UseDep};
use crate::rules::{Finding, WaiverRecord};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Cache hit/miss counters for the run summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Files whose facts were served from the cache.
    pub hits: usize,
    /// Files that had to be re-analyzed.
    pub misses: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 for an empty run.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The on-disk facts cache.
#[derive(Debug, Default)]
pub struct FactsCache {
    entries: BTreeMap<String, FileFacts>,
    /// Fingerprint the loaded file was stamped with.
    stamp: u64,
}

/// Format marker; bump on any serialization change.
const MAGIC: &str = "bios-audit-facts v1";

impl FactsCache {
    /// Canonical cache location for a workspace root.
    pub fn path_for(root: &Path) -> PathBuf {
        root.join("target").join("bios-audit-facts.cache")
    }

    /// Load the cache file, discarding it wholesale when missing,
    /// unreadable, or stamped with a different config fingerprint.
    pub fn load(path: &Path, fingerprint: u64) -> FactsCache {
        let mut cache = FactsCache {
            entries: BTreeMap::new(),
            stamp: fingerprint,
        };
        let Ok(text) = std::fs::read_to_string(path) else {
            return cache;
        };
        let mut lines = text.lines();
        match lines.next() {
            Some(header) if header == format!("{MAGIC} {fingerprint}") => {}
            _ => return cache,
        }
        let mut current: Option<FileFacts> = None;
        for line in lines {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.first().copied() {
                Some("FILE") => {
                    if let Some(f) = current.take() {
                        cache.entries.insert(f.path.clone(), f);
                    }
                    if let (Some(path), Some(fnv)) = (
                        fields.get(1),
                        fields.get(2).and_then(|s| s.parse::<u64>().ok()),
                    ) {
                        current = Some(FileFacts {
                            path: (*path).to_string(),
                            source_fnv: fnv,
                            ..FileFacts::default()
                        });
                    }
                }
                Some("LF") => {
                    let Some(f) = current.as_mut() else { continue };
                    if let (Some(line), Some(col), Some(rule), Some(msg)) = (
                        fields.get(1).and_then(|s| s.parse().ok()),
                        fields.get(2).and_then(|s| s.parse().ok()),
                        fields.get(3).and_then(|s| Rule::from_id(s)),
                        fields.get(4),
                    ) {
                        f.local_findings.push(Finding {
                            path: f.path.clone(),
                            line,
                            col,
                            rule,
                            message: unescape(msg),
                        });
                    }
                }
                Some("WV") => {
                    let Some(f) = current.as_mut() else { continue };
                    if let (Some(line), Some(rule), Some(reason)) = (
                        fields.get(1).and_then(|s| s.parse().ok()),
                        fields.get(2),
                        fields.get(3),
                    ) {
                        f.waivers.push(WaiverRecord {
                            path: f.path.clone(),
                            line,
                            rule: unescape(rule),
                            reason: unescape(reason),
                            used: false,
                        });
                    }
                }
                Some("FN") => {
                    let Some(f) = current.as_mut() else { continue };
                    if let (
                        Some(qual),
                        Some(name),
                        Some(owner),
                        Some(aliases),
                        Some(line),
                        Some(col),
                    ) = (
                        fields.get(1),
                        fields.get(2),
                        fields.get(3),
                        fields.get(4),
                        fields.get(5).and_then(|s| s.parse().ok()),
                        fields.get(6).and_then(|s| s.parse().ok()),
                    ) {
                        f.fns.push(FnFact {
                            qual: unescape(qual),
                            name: unescape(name),
                            owner: (*owner != "-").then(|| unescape(owner)),
                            module_aliases: aliases
                                .split(',')
                                .filter(|a| !a.is_empty())
                                .map(str::to_string)
                                .collect(),
                            line,
                            col,
                            calls: Vec::new(),
                            banned: Vec::new(),
                        });
                    }
                }
                Some("CALL") => {
                    let Some(last) = current.as_mut().and_then(|f| f.fns.last_mut()) else {
                        continue;
                    };
                    if let (Some(kind), Some(qualifier), Some(name), Some(line), Some(col)) = (
                        fields
                            .get(1)
                            .and_then(|s| s.chars().next())
                            .and_then(CallKind::from_tag),
                        fields.get(2),
                        fields.get(3),
                        fields.get(4).and_then(|s| s.parse().ok()),
                        fields.get(5).and_then(|s| s.parse().ok()),
                    ) {
                        last.calls.push(CallSite {
                            kind,
                            qualifier: (*qualifier != "-").then(|| unescape(qualifier)),
                            name: unescape(name),
                            line,
                            col,
                        });
                    }
                }
                Some("BAN") => {
                    let Some(last) = current.as_mut().and_then(|f| f.fns.last_mut()) else {
                        continue;
                    };
                    if let (Some(api), Some(line), Some(col)) = (
                        fields.get(1),
                        fields.get(2).and_then(|s| s.parse().ok()),
                        fields.get(3).and_then(|s| s.parse().ok()),
                    ) {
                        last.banned.push(BannedSite {
                            api: unescape(api),
                            line,
                            col,
                        });
                    }
                }
                Some("USE") => {
                    let Some(f) = current.as_mut() else { continue };
                    if let (Some(krate), Some(line), Some(col)) = (
                        fields.get(1),
                        fields.get(2).and_then(|s| s.parse().ok()),
                        fields.get(3).and_then(|s| s.parse().ok()),
                    ) {
                        f.use_deps.push(UseDep {
                            krate: unescape(krate),
                            line,
                            col,
                        });
                    }
                }
                _ => {}
            }
        }
        if let Some(f) = current.take() {
            cache.entries.insert(f.path.clone(), f);
        }
        cache
    }

    /// Facts for `path` if cached under the same source hash.
    pub fn get(&self, path: &str, source_fnv: u64) -> Option<&FileFacts> {
        self.entries
            .get(path)
            .filter(|f| f.source_fnv == source_fnv)
    }

    /// Insert (or replace) the facts for a file.
    pub fn put(&mut self, facts: FileFacts) {
        self.entries.insert(facts.path.clone(), facts);
    }

    /// Serialize the cache back to disk. Best-effort: a write failure
    /// only costs the next run its warm start.
    pub fn store(&self, path: &Path) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(path, self.render());
    }

    /// The deterministic on-disk rendering.
    fn render(&self) -> String {
        let mut out = format!("{MAGIC} {}\n", self.stamp);
        for f in self.entries.values() {
            out.push_str(&format!("FILE\t{}\t{}\n", f.path, f.source_fnv));
            for lf in &f.local_findings {
                out.push_str(&format!(
                    "LF\t{}\t{}\t{}\t{}\n",
                    lf.line,
                    lf.col,
                    lf.rule.id(),
                    escape(&lf.message)
                ));
            }
            for w in &f.waivers {
                out.push_str(&format!(
                    "WV\t{}\t{}\t{}\n",
                    w.line,
                    escape(&w.rule),
                    escape(&w.reason)
                ));
            }
            for fun in &f.fns {
                out.push_str(&format!(
                    "FN\t{}\t{}\t{}\t{}\t{}\t{}\n",
                    escape(&fun.qual),
                    escape(&fun.name),
                    fun.owner
                        .as_deref()
                        .map(escape)
                        .unwrap_or_else(|| "-".into()),
                    fun.module_aliases.join(","),
                    fun.line,
                    fun.col
                ));
                for c in &fun.calls {
                    out.push_str(&format!(
                        "CALL\t{}\t{}\t{}\t{}\t{}\n",
                        c.kind.tag(),
                        c.qualifier
                            .as_deref()
                            .map(escape)
                            .unwrap_or_else(|| "-".into()),
                        escape(&c.name),
                        c.line,
                        c.col
                    ));
                }
                for b in &fun.banned {
                    out.push_str(&format!("BAN\t{}\t{}\t{}\n", escape(&b.api), b.line, b.col));
                }
            }
            for u in &f.use_deps {
                out.push_str(&format!(
                    "USE\t{}\t{}\t{}\n",
                    escape(&u.krate),
                    u.line,
                    u.col
                ));
            }
        }
        out
    }
}

/// Escape tabs, newlines, and backslashes for the one-record-per-line
/// format.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

/// Inverse of [`escape`].
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::rules::analyze_file;

    #[test]
    fn facts_round_trip_through_the_cache_format() {
        let config = Config::default();
        let src = "// bios-audit: allow(P-unwrap) — test waiver reason\n\
                   pub fn digest() -> u64 { helper().unwrap() }\n\
                   fn helper() -> Option<u64> { let m = std::collections::HashMap::new(); None }\n";
        let facts = analyze_file("crates/runtime/src/cache.rs", src, &config);
        let mut cache = FactsCache {
            stamp: config.fingerprint(),
            ..FactsCache::default()
        };
        cache.put(facts.clone());
        let dir = std::env::temp_dir().join("bios-audit-cache-test");
        let path = dir.join("roundtrip.cache");
        cache.store(&path);
        let reloaded = FactsCache::load(&path, config.fingerprint());
        let got = reloaded
            .get("crates/runtime/src/cache.rs", facts.source_fnv)
            .expect("entry survives the round trip");
        assert_eq!(got.local_findings, facts.local_findings);
        assert_eq!(got.fns.len(), facts.fns.len());
        assert_eq!(got.fns[0].calls, facts.fns[0].calls);
        assert_eq!(got.fns[1].banned, facts.fns[1].banned);
        assert_eq!(got.waivers.len(), facts.waivers.len());
        assert_eq!(got.waivers[0].reason, facts.waivers[0].reason);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_fingerprint_discards_the_cache() {
        let config = Config::default();
        let facts = analyze_file("crates/units/src/lib.rs", "pub fn f() {}", &config);
        let mut cache = FactsCache {
            stamp: 1,
            ..FactsCache::default()
        };
        cache.put(facts.clone());
        let dir = std::env::temp_dir().join("bios-audit-cache-stale-test");
        let path = dir.join("stale.cache");
        cache.store(&path);
        let reloaded = FactsCache::load(&path, 2);
        assert!(reloaded
            .get("crates/units/src/lib.rs", facts.source_fnv)
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
