#include "mappers/registry.hpp"

#include <cstddef>
#include <utility>

#include "mappers/mappers.hpp"

namespace cgra {
namespace {

// The single source of truth for "every shipped mapper, in a stable
// order": Table I column order (heuristics, meta-heuristics, exact
// ILP / B&B, exact CSP). The registry constructs from this list.
using MapperFactory = std::unique_ptr<Mapper> (*)();

constexpr MapperFactory kFactories[] = {
    // Heuristics.
    &MakeSpatialGreedyMapper,
    &MakeGraphDrawingMapper,
    &MakeIterativeModuloScheduler,
    &MakeUltraFastScheduler,
    &MakeEdgeCentricMapper,
    &MakeRampMapper,
    &MakeEpimapStyleMapper,
    &MakeBackwardBeamMapper,
    &MakeCrimsonScheduler,
    &MakeHierarchicalMapper,
    // Meta-heuristics.
    &MakeAnnealingSpatialMapper,
    &MakeDrescAnnealingMapper,
    &MakeAnnealingBinder,
    &MakeGeneticSpatialMapper,
    &MakeQeaBinder,
    // Exact: ILP / B&B.
    &MakeIlpSpatialMapper,
    &MakeIlpTemporalMapper,
    &MakeIlpBinder,
    &MakeIlpScheduler,
    &MakeBranchBoundMapper,
    // Exact: CSP.
    &MakeCpTemporalMapper,
    &MakeSatTemporalMapper,
    &MakeSmtTemporalMapper,
};

}  // namespace

MapperRegistry::MapperRegistry() {
  mappers_.reserve(std::size(kFactories));
  for (MapperFactory make : kFactories) mappers_.push_back(make());
  // Test fixtures: resolvable by name, invisible to enumeration.
  fixtures_.push_back(MakeThrowingMapper());
  fixtures_.push_back(MakeSegvMapper());
  fixtures_.push_back(MakeSpinMapper());
  fixtures_.push_back(MakeAllocBombMapper());
}

const MapperRegistry& MapperRegistry::Global() {
  static const MapperRegistry registry;
  return registry;
}

const Mapper* MapperRegistry::Find(std::string_view name) const {
  for (const auto& m : mappers_) {
    if (m->name() == name) return m.get();
  }
  for (const auto& m : fixtures_) {
    if (m->name() == name) return m.get();
  }
  return nullptr;
}

std::vector<const Mapper*> MapperRegistry::ByTechnique(
    TechniqueClass technique) const {
  std::vector<const Mapper*> out;
  for (const auto& m : mappers_) {
    if (m->technique() == technique) out.push_back(m.get());
  }
  return out;
}

std::vector<const Mapper*> MapperRegistry::ByKind(MappingKind kind) const {
  std::vector<const Mapper*> out;
  for (const auto& m : mappers_) {
    if (m->kind() == kind) out.push_back(m.get());
  }
  return out;
}

std::vector<const Mapper*> MapperRegistry::All() const {
  std::vector<const Mapper*> out;
  out.reserve(mappers_.size());
  for (const auto& m : mappers_) out.push_back(m.get());
  return out;
}

}  // namespace cgra
