/**
 * @file
 * SGD with momentum and optional weight decay.
 */

#ifndef TRAINBOX_NN_OPTIMIZER_HH
#define TRAINBOX_NN_OPTIMIZER_HH

#include <vector>

#include "nn/tensor.hh"

namespace tb {
namespace nn {

/** Classic SGD: v = mu v - lr (g + wd p); p += v. */
class SgdOptimizer
{
  public:
    struct Config
    {
        double learningRate = 0.05;
        double momentum = 0.9;
        double weightDecay = 1e-4;
    };

    SgdOptimizer();
    explicit SgdOptimizer(const Config &cfg) : cfg_(cfg) {}

    /** Register a (parameter, gradient) pair; allocates velocity. */
    void attach(Matrix *param, Matrix *grad);

    /** Apply one update to every registered parameter. */
    void step();

    const Config &config() const { return cfg_; }

  private:
    struct Slot
    {
        Matrix *param;
        Matrix *grad;
        Matrix velocity;
    };

    Config cfg_;
    std::vector<Slot> slots_;
};

} // namespace nn
} // namespace tb

#endif // TRAINBOX_NN_OPTIMIZER_HH
