#include "dsd/oracle_factory.h"

#include <utility>

#include "dsd/caching_oracle.h"
#include "pattern/pattern.h"

namespace dsd {

namespace {

// The built-in motif-name vocabulary. The factory's registrations and the
// fallback diagnostics both derive from this range, so the parser and the
// listing cannot drift apart.
constexpr int kMinClique = 2;
constexpr int kMaxClique = 9;

struct NamedPattern {
  const char* name;
  Pattern (*make)();
};

constexpr NamedPattern kNamedPatterns[] = {
    {"2-star", &Pattern::TwoStar},
    {"3-star", &Pattern::ThreeStar},
    {"c3-star", &Pattern::C3Star},
    {"diamond", &Pattern::Diamond},
    {"2-triangle", &Pattern::TwoTriangle},
    {"3-triangle", &Pattern::ThreeTriangle},
    {"basket", &Pattern::Basket},
};

void RegisterBuiltins(OracleFactory& factory) {
  auto add = [&factory](std::string name, OracleFactory::Builder builder) {
    Status status = factory.Register(std::move(name), std::move(builder));
    (void)status;  // Built-in names are distinct by construction.
  };
  // The built-in oracles take their thread count from each query's ctx, so
  // one class serves every budget and the builders ignore options.threads.
  add("edge", [](const OracleOptions&) {
    return std::make_unique<CliqueOracle>(2);
  });
  add("triangle", [](const OracleOptions&) {
    return std::make_unique<CliqueOracle>(3);
  });
  for (int h = kMinClique; h <= kMaxClique; ++h) {
    add(std::to_string(h) + "-clique", [h](const OracleOptions&) {
      return std::make_unique<CliqueOracle>(h);
    });
  }
  for (const NamedPattern& pattern : kNamedPatterns) {
    add(pattern.name, [make = pattern.make](const OracleOptions& options) {
      return std::make_unique<PatternOracle>(make(),
                                             options.use_special_kernels);
    });
  }
}

// A numeric "<digits>-clique" spelling the registry did not accept:
// distinguish a zero-padded in-range size ("03-clique") from a genuinely
// unsupported one so the diagnostic is never factually wrong.
Status DiagnoseCliqueSpelling(const std::string& name) {
  const std::string digits = name.substr(0, name.size() - 7);
  const size_t nonzero = digits.find_first_not_of('0');
  const std::string value =
      nonzero == std::string::npos ? "0" : digits.substr(nonzero);
  if (value.size() == 1 && value[0] - '0' >= kMinClique &&
      value[0] - '0' <= kMaxClique) {
    return Status::InvalidArgument("clique motif '" + name +
                                   "' must be written '" + value + "-clique'");
  }
  return Status::InvalidArgument(
      "clique motif '" + name + "' outside the supported range " +
      std::to_string(kMinClique) + ".." + std::to_string(kMaxClique));
}

}  // namespace

OracleFactory& OracleFactory::Global() {
  static OracleFactory* factory = [] {
    auto* f = new OracleFactory();
    RegisterBuiltins(*f);
    return f;
  }();
  return *factory;
}

Status OracleFactory::Register(std::string name, Builder builder) {
  if (name.empty() || builder == nullptr) {
    return Status::InvalidArgument(
        "oracle builders must have a non-empty name and a callable builder");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [existing, unused] : builders_) {
    if (existing == name) {
      return Status::InvalidArgument("motif '" + name +
                                     "' is already registered");
    }
  }
  builders_.emplace_back(std::move(name), std::move(builder));
  return Status::Ok();
}

StatusOr<std::unique_ptr<MotifOracle>> OracleFactory::Make(
    const std::string& name, const OracleOptions& options) const {
  Builder builder;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [registered, candidate] : builders_) {
      if (registered == name) {
        builder = candidate;
        break;
      }
    }
  }
  if (builder == nullptr) {
    if (name.size() > 7 && name.ends_with("-clique") &&
        name.find_first_not_of("0123456789") == name.size() - 7) {
      return DiagnoseCliqueSpelling(name);
    }
    return Status::NotFound("unknown motif '" + name + "'");
  }
  std::unique_ptr<MotifOracle> oracle = builder(options);
  if (oracle == nullptr) {
    return Status::InvalidArgument("oracle builder for '" + name +
                                   "' returned null");
  }
  // Policy decorators are the factory's job, applied uniformly to built-in
  // and plugged-in motifs. Caching pays only when one query out-costs the
  // cache bookkeeping (generation-tag keying, mask scan, hit-path copy);
  // edge degrees are already linear.
  if (options.cache && oracle->MotifSize() >= 3) {
    oracle = std::make_unique<CachingOracle>(std::move(oracle));
  }
  return oracle;
}

std::vector<std::string> OracleFactory::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(builders_.size());
  for (const auto& [name, unused] : builders_) names.push_back(name);
  return names;
}

StatusOr<std::unique_ptr<MotifOracle>> MakeOracle(const std::string& motif,
                                                  const OracleOptions& options) {
  return OracleFactory::Global().Make(motif, options);
}

}  // namespace dsd
