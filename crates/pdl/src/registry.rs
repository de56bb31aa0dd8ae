//! Problem registry: the name → specification index kept by both servers
//! (what can I solve?) and agents (what does the network offer?).

use std::collections::HashMap;

use netsolve_core::error::{NetSolveError, Result};
use netsolve_core::problem::ProblemSpec;

use crate::catalogue::standard_catalogue;
use crate::parser::parse;

/// An indexed, validated collection of problem specifications.
#[derive(Debug, Clone, Default)]
pub struct ProblemRegistry {
    by_name: HashMap<String, ProblemSpec>,
}

impl ProblemRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registry pre-loaded with the standard catalogue.
    pub fn with_standard_catalogue() -> Self {
        let mut reg = Self::new();
        for spec in standard_catalogue().expect("shipped catalogue parses") {
            reg.register(spec).expect("shipped catalogue is conflict-free");
        }
        reg
    }

    /// Register one validated spec. Rejects duplicates — a server must not
    /// silently shadow an existing problem with a different signature.
    pub fn register(&mut self, spec: ProblemSpec) -> Result<()> {
        spec.validate()?;
        if self.by_name.contains_key(&spec.name) {
            return Err(NetSolveError::Registration(format!(
                "problem '{}' already registered",
                spec.name
            )));
        }
        self.by_name.insert(spec.name.clone(), spec);
        Ok(())
    }

    /// Parse PDL source and register every problem in it. Either all
    /// problems register or none do (the registry is untouched on error).
    pub fn register_source(&mut self, source: &str) -> Result<usize> {
        let specs = parse(source)?;
        for spec in &specs {
            if self.by_name.contains_key(&spec.name) {
                return Err(NetSolveError::Registration(format!(
                    "problem '{}' already registered",
                    spec.name
                )));
            }
        }
        let count = specs.len();
        for spec in specs {
            self.by_name.insert(spec.name.clone(), spec);
        }
        Ok(count)
    }

    /// Look up a problem by mnemonic.
    pub fn get(&self, name: &str) -> Option<&ProblemSpec> {
        self.by_name.get(name)
    }

    /// Look up or fail with `ProblemNotFound`.
    pub fn require(&self, name: &str) -> Result<&ProblemSpec> {
        self.get(name)
            .ok_or_else(|| NetSolveError::ProblemNotFound(name.to_string()))
    }

    /// True if the problem is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Number of registered problems.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// All problems, sorted by name (stable listing for `netsolve list`).
    pub fn list(&self) -> Vec<&ProblemSpec> {
        let mut all: Vec<&ProblemSpec> = self.by_name.values().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// All problem names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.by_name.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_core::data::ObjectKind;
    use netsolve_core::problem::{Complexity, ObjectSpec};

    fn toy(name: &str) -> ProblemSpec {
        ProblemSpec {
            name: name.into(),
            description: "toy".into(),
            inputs: vec![ObjectSpec::new("x", ObjectKind::Vector, "")],
            outputs: vec![ObjectSpec::new("y", ObjectKind::Vector, "")],
            complexity: Complexity::new(1.0, 1.0).unwrap(),
            major_input: 0,
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = ProblemRegistry::new();
        assert!(reg.is_empty());
        reg.register(toy("p1")).unwrap();
        assert!(reg.contains("p1"));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get("p1").unwrap().name, "p1");
        assert!(reg.require("p1").is_ok());
        assert!(matches!(
            reg.require("nope"),
            Err(NetSolveError::ProblemNotFound(_))
        ));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut reg = ProblemRegistry::new();
        reg.register(toy("p")).unwrap();
        assert!(reg.register(toy("p")).is_err());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn invalid_spec_rejected() {
        let mut reg = ProblemRegistry::new();
        let mut bad = toy("ok");
        bad.major_input = 7;
        assert!(reg.register(bad).is_err());
        assert!(reg.is_empty());
    }

    #[test]
    fn standard_catalogue_loads() {
        let reg = ProblemRegistry::with_standard_catalogue();
        assert!(reg.len() >= 16);
        assert!(reg.contains("dgesv"));
        assert!(reg.contains("fft"));
    }

    #[test]
    fn register_source_is_atomic() {
        let mut reg = ProblemRegistry::new();
        reg.register(toy("dupe")).unwrap();
        let src = "\
@PROBLEM fresh\n@DESCRIPTION \"d\"\n@INPUT v : vector\n@COMPLEXITY 1 1\n@END\n\
@PROBLEM dupe\n@DESCRIPTION \"d\"\n@INPUT v : vector\n@COMPLEXITY 1 1\n@END\n";
        assert!(reg.register_source(src).is_err());
        // 'fresh' must not have been half-registered
        assert!(!reg.contains("fresh"));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn register_source_counts() {
        let mut reg = ProblemRegistry::new();
        let n = reg
            .register_source(crate::catalogue::STANDARD_PDL)
            .unwrap();
        assert_eq!(n, reg.len());
    }

    #[test]
    fn listing_is_sorted() {
        let mut reg = ProblemRegistry::new();
        reg.register(toy("zz")).unwrap();
        reg.register(toy("aa")).unwrap();
        reg.register(toy("mm")).unwrap();
        let names = reg.names();
        assert_eq!(names, vec!["aa", "mm", "zz"]);
        let listed: Vec<&str> = reg.list().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(listed, vec!["aa", "mm", "zz"]);
    }
}
