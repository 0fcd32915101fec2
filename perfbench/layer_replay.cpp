#include "layer_replay.hpp"

#include <algorithm>
#include <vector>

#include "traced_transport.hpp"

namespace mdgan::perfbench {
namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Replays every layer of `net` on the activation its predecessor
// produced from `x`, in training mode, as one discriminator or
// generator step would.
void replay(nn::Sequential& net, Tensor x, int reps, LayerTimes& out) {
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    nn::Layer& layer = net.layer(i);
    const Tensor grad = Tensor::ones(layer.forward_ws(x, true).shape());
    layer.backward_ws(grad);  // warm the layer's workspace
    std::vector<double> fwd, bwd;
    for (int r = 0; r < reps; ++r) {
      const double t0 = steady_seconds();
      layer.forward_ws(x, true);
      const double t1 = steady_seconds();
      layer.backward_ws(grad);
      bwd.push_back(steady_seconds() - t1);
      fwd.push_back(t1 - t0);
    }
    out.fwd_s[layer.name()] += median(fwd);
    out.bwd_s[layer.name()] += median(bwd);
    x = layer.forward_ws(x, true);
  }
}

}  // namespace

LayerTimes replay_layers(gan::ArchKind kind, std::size_t batch,
                         std::uint64_t seed, int reps) {
  const gan::GanArch arch = gan::make_arch(kind);
  Rng rng(seed);
  nn::Sequential g = gan::build_generator(arch, rng);
  nn::Sequential d = gan::build_discriminator(arch, rng);
  LayerTimes out;
  replay(g, Tensor::randn({batch, arch.latent_dim}, rng), reps, out);
  replay(d, Tensor::rand({batch, arch.image_dim()}, rng, -1.f, 1.f), reps,
         out);
  return out;
}

}  // namespace mdgan::perfbench
