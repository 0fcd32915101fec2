#include "gan/trainer.hpp"

#include <stdexcept>

namespace mdgan::gan {

DiscStepStats disc_learning_step(nn::Sequential& disc,
                                 opt::Optimizer& d_opt, const Tensor& x_real,
                                 const std::vector<int>& y_real,
                                 const Tensor& x_fake,
                                 const std::vector<int>& y_fake,
                                 bool acgan) {
  DiscStepStats stats;
  d_opt.zero_grad();

  // Real side (workspace path: activations and the discarded input grad
  // live in layer scratch, so the step allocates only the loss grads).
  const Tensor& out_real = disc.forward_ws(x_real, /*train=*/true);
  SideLoss real = disc_side_loss(out_real, /*target_real=*/true,
                                 acgan ? &y_real : nullptr);
  disc.backward_ws(real.grad);

  // Fake side (forward/backward immediately: layer caches are
  // single-shot).
  const Tensor& out_fake = disc.forward_ws(x_fake, /*train=*/true);
  SideLoss fake = disc_side_loss(out_fake, /*target_real=*/false,
                                 acgan ? &y_fake : nullptr);
  disc.backward_ws(fake.grad);

  d_opt.step();
  stats.loss_real = real.source_loss;
  stats.loss_fake = fake.source_loss;
  stats.aux_loss = real.aux_loss + fake.aux_loss;
  return stats;
}

Tensor generator_feedback(nn::Sequential& disc, const Tensor& x_fake,
                          const std::vector<int>* y_fake, bool saturating,
                          float* loss_out) {
  const Tensor& d_out = disc.forward_ws(x_fake, /*train=*/true);
  SideLoss gl = generator_loss(d_out, y_fake, saturating);
  Tensor feedback = disc.backward_ws(gl.grad);  // copy: shipped to server
  // Drop the parameter gradients this pass accumulated: the
  // discriminator is not being trained here (Algorithm 1 line 9 only
  // ships dJ/dx).
  disc.zero_grad();
  if (loss_out) *loss_out = gl.source_loss + gl.aux_loss;
  return feedback;
}

StandaloneGan::StandaloneGan(GanArch arch, GanHyperParams hp,
                             std::uint64_t seed)
    : arch_(arch),
      hp_(hp),
      codes_(arch.image.num_classes, arch.latent_dim),
      rng_(Rng(seed).split(0x57a).split(0xa10e)) {
  Rng init_rng = Rng(seed).split(0x1417);
  g_ = build_generator(arch_, init_rng);
  d_ = build_discriminator(arch_, init_rng);
  g_opt_ = std::make_unique<opt::Adam>(g_.params(), g_.grads(), hp_.g_adam);
  d_opt_ = std::make_unique<opt::Adam>(d_.params(), d_.grads(), hp_.d_adam);
}

void StandaloneGan::train(const data::InMemoryDataset& dataset,
                          std::int64_t iters, std::int64_t eval_every,
                          const EvalHook& hook) {
  if (dataset.dim() != arch_.image_dim()) {
    throw std::invalid_argument("StandaloneGan::train: dataset " +
                                dataset.meta().name +
                                " does not match arch image size");
  }
  const std::size_t b = hp_.batch;
  for (std::int64_t i = 1; i <= iters; ++i) {
    // Discriminator learning (L inner steps on fresh fakes, same reals —
    // the Algorithm 1 worker loop shape).
    std::vector<int> y_real;
    Tensor x_real = dataset.sample_batch(rng_, b, &y_real);
    std::vector<int> y_fake;
    Tensor z = sample_latent(arch_, codes_, b, rng_, y_fake);
    // x_fake lives in G's scratch until G's next forward (x_gen below).
    const Tensor& x_fake = g_.forward_ws(z, /*train=*/true);
    for (std::size_t l = 0; l < hp_.disc_steps; ++l) {
      disc_learning_step(d_, *d_opt_, x_real, y_real, x_fake, y_fake,
                         arch_.acgan);
    }

    // Generator learning: feedback through D, then backprop through G.
    std::vector<int> y_gen;
    Tensor z2 = sample_latent(arch_, codes_, b, rng_, y_gen);
    const Tensor& x_gen = g_.forward_ws(z2, /*train=*/true);
    Tensor feedback = generator_feedback(
        d_, x_gen, arch_.acgan ? &y_gen : nullptr, hp_.saturating);
    g_opt_->zero_grad();
    g_.backward_ws(feedback);
    g_opt_->step();

    if (hook && eval_every > 0 && (i % eval_every == 0 || i == iters)) {
      hook(i, g_);
    }
  }
}

}  // namespace mdgan::gan
