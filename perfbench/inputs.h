// Seeded input generation for the perfbench workloads. Everything the
// library sees — corpora, documents, queries and their cost models — is
// made here from the workload seed, so one seed always yields the same
// inputs (InputDigest makes that checkable across processes).
#ifndef APPROXQL_PERFBENCH_INPUTS_H_
#define APPROXQL_PERFBENCH_INPUTS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "engine/database.h"
#include "gen/query_generator.h"
#include "gen/xml_generator.h"

namespace approxql::perfbench {

/// The paper's collection ratios (bench/fig7_common.h): 100 element
/// names, a vocabulary of one term per ten elements, ten Zipf-distributed
/// words per element, a 150-node template and ~100 elements per document.
gen::XmlGenOptions PaperRatioOptions(uint64_t seed, size_t total_elements);

/// A seeded delete-cost table over every element name and term the
/// generator can emit, baked into the database's own cost model. Queries
/// that travel over the wire cannot carry per-query cost models, so this
/// is what makes their answers ranked approximate matches instead of
/// mostly-empty exact ones.
cost::CostModel SeededDeleteCosts(uint64_t seed,
                                  const gen::XmlGenOptions& options);

/// Standalone XML documents from the same generator: `count` of them,
/// or with `count` 0, as many as hold `options.total_elements` elements
/// (document sizes vary with the seed; the collection size does not).
std::vector<std::string> GenerateDocuments(const gen::XmlGenOptions& options,
                                           size_t count = 0);

/// Elements in one XML document, counted by xml::ParseXml.
size_t CountElements(std::string_view xml);

/// The paper's query mix: patterns 1-3 x {0, 5, 10} renamings per label
/// with per-query cost models; `per_pattern[r]` queries of each pattern
/// at renaming level r. Classes are spread evenly through the list, so
/// any window of it holds every class in proportion.
std::vector<gen::GeneratedQuery> PaperQueryMix(
    const engine::Database& db, uint64_t seed,
    const std::array<size_t, 3>& per_pattern);

/// `count` query texts over patterns 1-3 round-robin, no renamings: the
/// form that can travel over the wire (the database's own cost model
/// prices them).
std::vector<std::string> WireQueries(const engine::Database& db,
                                     uint64_t seed, size_t count);

/// FNV-1a over a list of strings; printed by every run so two processes
/// can confirm they drove identical inputs.
uint64_t InputDigest(const std::vector<std::string>& parts);

}  // namespace approxql::perfbench

#endif  // APPROXQL_PERFBENCH_INPUTS_H_
