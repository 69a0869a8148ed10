//! The paper's running example: Tables 1–3 (three hospitals).
//!
//! Used by the quickstart example, the integration tests, and every test
//! that wants to check a result against numbers printed in the paper.

use prism_core::EnumeratedDomain;
use prism_protocol::driver::OwnerInput;
use serde::{Deserialize, Serialize};

/// One hospital record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Patient {
    /// Patient name.
    pub name: &'static str,
    /// Age in years.
    pub age: u64,
    /// Treated disease.
    pub disease: &'static str,
    /// Treatment cost.
    pub cost: u64,
}

/// Table 1 — Hospital 1.
pub(crate) fn hospital_1() -> Vec<Patient> {
    vec![
        Patient {
            name: "John",
            age: 4,
            disease: "Cancer",
            cost: 100,
        },
        Patient {
            name: "Adam",
            age: 6,
            disease: "Cancer",
            cost: 200,
        },
        Patient {
            name: "Mike",
            age: 2,
            disease: "Heart",
            cost: 300,
        },
    ]
}

/// Table 2 — Hospital 2.
pub(crate) fn hospital_2() -> Vec<Patient> {
    vec![
        Patient {
            name: "John",
            age: 8,
            disease: "Cancer",
            cost: 100,
        },
        Patient {
            name: "Adam",
            age: 5,
            disease: "Fever",
            cost: 70,
        },
        Patient {
            name: "Bob",
            age: 4,
            disease: "Fever",
            cost: 50,
        },
    ]
}

/// Table 3 — Hospital 3.
pub(crate) fn hospital_3() -> Vec<Patient> {
    vec![
        Patient {
            name: "Carl",
            age: 8,
            disease: "Cancer",
            cost: 300,
        },
        Patient {
            name: "John",
            age: 4,
            disease: "Cancer",
            cost: 700,
        },
        Patient {
            name: "Lisa",
            age: 5,
            disease: "Heart",
            cost: 500,
        },
    ]
}

/// All three hospitals.
pub fn all_hospitals() -> Vec<Vec<Patient>> {
    vec![hospital_1(), hospital_2(), hospital_3()]
}

/// The public disease domain all hospitals agree on (§4: owners know the
/// domain of the set attribute).
pub(crate) fn disease_domain() -> EnumeratedDomain<&'static str> {
    EnumeratedDomain::new(["Cancer", "Fever", "Heart"])
}

/// Encode a hospital's records as driver input over the disease domain,
/// with `(cost, age)` as the two aggregation attributes. Cells are the
/// 1-based ranks in the enumerated domain.
pub fn to_owner_input(patients: &[Patient]) -> OwnerInput {
    let domain = disease_domain();
    OwnerInput {
        rows: patients
            .iter()
            .map(|p| {
                let cell = prism_core::DomainMap::index_of(&domain, &p.disease)
                    .expect("disease in domain") as u64
                    + 1;
                (cell, vec![p.cost, p.age])
            })
            .collect(),
    }
}

/// Decode a cell index back to the disease name.
pub fn disease_of_cell(cell: usize) -> &'static str {
    disease_domain().value_of(cell).to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_the_paper() {
        assert_eq!(hospital_1().len(), 3);
        assert_eq!(hospital_2()[2].name, "Bob");
        assert_eq!(hospital_3()[1].cost, 700);
    }

    #[test]
    fn domain_enumeration_is_stable() {
        let d = disease_domain();
        assert_eq!(prism_core::DomainMap::index_of(&d, &"Cancer"), Some(0));
        assert_eq!(disease_of_cell(0), "Cancer");
        assert_eq!(disease_of_cell(2), "Heart");
    }

    #[test]
    fn owner_input_encoding() {
        let input = to_owner_input(&hospital_2());
        // John→Cancer(cell 1), Adam/Bob→Fever(cell 2).
        assert_eq!(input.rows[0].0, 1);
        assert_eq!(input.rows[1].0, 2);
        assert_eq!(input.rows[2].0, 2);
        assert_eq!(input.rows[0].1, vec![100, 8]);
    }
}
