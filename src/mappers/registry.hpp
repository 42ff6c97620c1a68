// The mapper registry: the library's catalogue of Table-I techniques.
//
// The only constructor of the mapper list, with real lookups: benches
// pick cells by technique class, the portfolio engine assembles race
// line-ups by name, and tests iterate in a stable, documented order
// (heuristics, then meta-heuristics, then exact ILP / B&B, then exact
// CSP — the column order of the survey's Table I).
//
// Instances are constructed once per registry and shared; Mapper
// implementations are stateless (Map() is const), so handing the same
// instance to concurrent callers is safe.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "mapping/mapper.hpp"

namespace cgra {

class MapperRegistry {
 public:
  /// Builds every shipped mapper in the stable Table-I order.
  MapperRegistry();

  MapperRegistry(const MapperRegistry&) = delete;
  MapperRegistry& operator=(const MapperRegistry&) = delete;

  /// The process-wide shared registry (constructed on first use;
  /// thread-safe per C++ magic statics).
  static const MapperRegistry& Global();

  /// Lookup by Mapper::name() ("ims", "sat", "bnb", ...); nullptr when
  /// unknown. Also resolves the test fixtures ("throwing"), which are
  /// Find-only: they never appear in All()/ByTechnique()/ByKind() or
  /// the iteration order, so benches and portfolio sweeps cannot pick
  /// one up by accident.
  const Mapper* Find(std::string_view name) const;

  /// All mappers of one Table-I solution-strategy column, in stable
  /// order.
  std::vector<const Mapper*> ByTechnique(TechniqueClass technique) const;

  /// All mappers of one Table-I problem-slice row, in stable order.
  std::vector<const Mapper*> ByKind(MappingKind kind) const;

  /// Every mapper, in stable order.
  std::vector<const Mapper*> All() const;

  std::size_t size() const { return mappers_.size(); }
  const Mapper& at(std::size_t i) const { return *mappers_[i]; }

  // Stable iteration (range-for over `const Mapper&`).
  class const_iterator {
   public:
    explicit const_iterator(
        std::vector<std::unique_ptr<Mapper>>::const_iterator it)
        : it_(it) {}
    const Mapper& operator*() const { return **it_; }
    const Mapper* operator->() const { return it_->get(); }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return it_ != o.it_; }
    bool operator==(const const_iterator& o) const { return it_ == o.it_; }

   private:
    std::vector<std::unique_ptr<Mapper>>::const_iterator it_;
  };
  const_iterator begin() const { return const_iterator(mappers_.begin()); }
  const_iterator end() const { return const_iterator(mappers_.end()); }

 private:
  std::vector<std::unique_ptr<Mapper>> mappers_;
  std::vector<std::unique_ptr<Mapper>> fixtures_;  ///< Find-only test doubles
};

}  // namespace cgra
