#include "inputs.h"

#include <algorithm>

#include "util/logging.h"
#include "util/random.h"
#include "xml/xml_parser.h"

namespace approxql::perfbench {

gen::XmlGenOptions PaperRatioOptions(uint64_t seed, size_t total_elements) {
  gen::XmlGenOptions options;
  options.seed = seed;
  options.total_elements = total_elements;
  options.element_names = 100;
  options.vocabulary = std::max<size_t>(total_elements / 10, 100);
  options.words_per_element = 10.0;
  options.zipf_theta = 1.0;
  options.template_nodes = 150;
  options.elements_per_document = 100;
  return options;
}

cost::CostModel SeededDeleteCosts(uint64_t seed,
                                  const gen::XmlGenOptions& options) {
  cost::CostModel model;
  util::Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  for (size_t i = 0; i < options.element_names; ++i) {
    model.SetDeleteCost(NodeType::kStruct, "elem" + std::to_string(i),
                        static_cast<cost::Cost>(rng.UniformInt(2, 10)));
  }
  for (size_t i = 0; i < options.vocabulary; ++i) {
    model.SetDeleteCost(NodeType::kText, "term" + std::to_string(i),
                        static_cast<cost::Cost>(rng.UniformInt(2, 10)));
  }
  return model;
}

std::vector<std::string> GenerateDocuments(const gen::XmlGenOptions& options,
                                           size_t count) {
  gen::XmlGenerator generator(options);
  std::vector<std::string> docs;
  size_t elements = 0;
  while (count > 0 ? docs.size() < count
                   : elements < options.total_elements) {
    docs.push_back(generator.GenerateDocumentXml());
    elements += CountElements(docs.back());
  }
  return docs;
}

namespace {

constexpr std::string_view kPatterns[] = {gen::kPattern1, gen::kPattern2,
                                          gen::kPattern3};

class ElementCounter : public xml::XmlHandler {
 public:
  util::Status OnStartElement(std::string_view,
                              const std::vector<xml::XmlAttribute>&) override {
    ++count;
    return util::Status::OK();
  }
  size_t count = 0;
};

}  // namespace

size_t CountElements(std::string_view xml) {
  ElementCounter counter;
  util::Status parsed = xml::ParseXml(xml, &counter);
  APPROXQL_CHECK(parsed.ok()) << parsed;
  return counter.count;
}

std::vector<gen::GeneratedQuery> PaperQueryMix(
    const engine::Database& db, uint64_t seed,
    const std::array<size_t, 3>& per_pattern) {
  constexpr size_t kRenamings[] = {0, 5, 10};
  // (position in [0, 1), query): each class's queries sit at evenly
  // spaced positions, so sorting by position interleaves the classes.
  std::vector<std::pair<double, gen::GeneratedQuery>> placed;
  for (size_t r = 0; r < std::size(kRenamings); ++r) {
    // One generator per renaming level, like the paper's one query set
    // per setting.
    gen::QueryGenOptions options;
    options.seed = seed * 1000 + kRenamings[r];
    options.renamings_per_label = kRenamings[r];
    gen::QueryGenerator generator(db, options);
    const size_t count = per_pattern[r];
    for (size_t i = 0; i < count; ++i) {
      for (size_t p = 0; p < std::size(kPatterns); ++p) {
        auto generated = generator.Generate(kPatterns[p]);
        APPROXQL_CHECK(generated.ok()) << generated.status();
        double position = (static_cast<double>(i) + (p + 1.0) / 4.0) /
                          static_cast<double>(count);
        placed.emplace_back(position, std::move(generated).value());
      }
    }
  }
  std::stable_sort(placed.begin(), placed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<gen::GeneratedQuery> queries;
  queries.reserve(placed.size());
  for (auto& entry : placed) queries.push_back(std::move(entry.second));
  return queries;
}

std::vector<std::string> WireQueries(const engine::Database& db,
                                     uint64_t seed, size_t count) {
  gen::QueryGenOptions options;
  options.seed = seed;
  gen::QueryGenerator generator(db, options);
  std::vector<std::string> queries;
  for (size_t i = 0; i < count; ++i) {
    auto generated = generator.Generate(kPatterns[i % std::size(kPatterns)]);
    APPROXQL_CHECK(generated.ok()) << generated.status();
    queries.push_back(std::move(generated->text));
  }
  return queries;
}

uint64_t InputDigest(const std::vector<std::string>& parts) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::string& part : parts) {
    for (unsigned char c : part) {
      hash = (hash ^ c) * 0x100000001b3ULL;
    }
    hash = (hash ^ 0xff) * 0x100000001b3ULL;  // part separator
  }
  return hash;
}

}  // namespace approxql::perfbench
