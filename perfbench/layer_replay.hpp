// Per-layer compute of a workload's models, measured by replaying each
// layer of gan::make_arch(kind)'s generator and discriminator through
// the public nn::Sequential::layer(i) API at the workload's batch size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "gan/arch.hpp"

namespace mdgan::perfbench {

struct LayerTimes {
  // Keyed by Layer::name(); seconds per call, summed over every layer of
  // that name in the generator and the discriminator. Each layer's time
  // is the median over `reps` calls.
  std::map<std::string, double> fwd_s;
  std::map<std::string, double> bwd_s;
};

LayerTimes replay_layers(gan::ArchKind kind, std::size_t batch,
                         std::uint64_t seed, int reps);

}  // namespace mdgan::perfbench
