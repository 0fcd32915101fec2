#include "nn/sequential.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace mdgan::nn {

const Tensor& Sequential::forward_ws(const Tensor& x, bool train) {
  const Tensor* h = &x;
  for (auto& layer : layers_) h = &layer->forward_ws(*h, train);
  return *h;
}

const Tensor& Sequential::backward_ws(const Tensor& grad_out) {
  const Tensor* g = &grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = &(*it)->backward_ws(*g);
  }
  return *g;
}

std::vector<Tensor*> Sequential::params() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::grads() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->grads()) out.push_back(g);
  }
  return out;
}

std::size_t Sequential::num_parameters() {
  std::size_t n = 0;
  for (Tensor* p : params()) n += p->numel();
  return n;
}

std::vector<float> Sequential::flatten_parameters() {
  std::vector<float> flat;
  flat.reserve(num_parameters());
  for (Tensor* p : params()) {
    flat.insert(flat.end(), p->vec().begin(), p->vec().end());
  }
  return flat;
}

void Sequential::assign_parameters(const std::vector<float>& flat) {
  std::size_t off = 0;
  for (Tensor* p : params()) {
    if (off + p->numel() > flat.size()) {
      throw std::invalid_argument(
          "Sequential::assign_parameters: flat vector too short");
    }
    std::copy_n(flat.data() + off, p->numel(), p->data());
    off += p->numel();
  }
  if (off != flat.size()) {
    throw std::invalid_argument(
        "Sequential::assign_parameters: flat vector too long (" +
        std::to_string(flat.size()) + " vs " + std::to_string(off) + ")");
  }
}

std::vector<float> Sequential::flatten_gradients() {
  std::vector<float> flat;
  for (Tensor* g : grads()) {
    flat.insert(flat.end(), g->vec().begin(), g->vec().end());
  }
  return flat;
}

void Sequential::clone_parameters_into(Sequential& other) {
  other.assign_parameters(flatten_parameters());
}

std::string Sequential::summary() {
  std::ostringstream os;
  os << "Sequential(" << layers_.size() << " layers, " << num_parameters()
     << " params)\n";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    os << "  [" << i << "] " << layers_[i]->name() << " ("
       << layers_[i]->param_count() << " params)\n";
  }
  return os.str();
}

}  // namespace mdgan::nn
