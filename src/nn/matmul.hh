/**
 * @file
 * Two-operand matrix multiplication (MatMulAB), used by attention.
 *
 * A has shape (N, Ha, 1, Ca) and B has shape (1, Hb, 1, Cb); both
 * operands are activations.  In the accelerator, the B operand streams
 * through the weight port, so FIdelity's fault models treat B elements
 * as "weights".  With transB the layer computes A * B^T (rows of B are
 * the reduction vectors), otherwise A * B.
 */

#ifndef FIDELITY_NN_MATMUL_HH
#define FIDELITY_NN_MATMUL_HH

#include "nn/layer.hh"

namespace fidelity
{

/** Batched A*B (or A*B^T) where both operands come from the graph. */
class MatMulAB : public MacLayer
{
  public:
    /**
     * @param name Layer name.
     * @param trans_b Compute A * B^T instead of A * B.
     * @param reduction Reduction depth: the columns of A (and the
     *                  columns of B with trans_b, else its rows).
     * @param scale Constant multiplied into every output (e.g. the
     *              1/sqrt(d) attention scaling); applied at writeback.
     */
    MatMulAB(std::string name, bool trans_b, int reduction,
             float scale = 1.0f);

    LayerKind kind() const override { return LayerKind::MatMul; }

    int numInputs() const override { return 2; }

    bool transB() const { return transB_; }

    /** Constant output scaling applied at writeback. */
    float outScale() const { return scale_; }

    Tensor makeOutput(const std::vector<const Tensor *> &ins) const override;

    /**
     * Row cone of A (its rows x every output column) or column cone of
     * B (every row x the output columns its rows / columns feed).
     */
    Region propagateRegion(const std::vector<const Tensor *> &ins,
                           int inputIdx, const Region &in,
                           const Tensor &out) const override;

    void forwardRegionBatched(const std::vector<const Tensor *> &ins,
                              LanePlane *const *inPlanes,
                              const Region &region,
                              const BatchCover *cover,
                              const Tensor &golden,
                              LanePlane &out,
                              const GoldenPrep *prep) const override;

    /** The packed golden B, built once per golden pass. */
    std::unique_ptr<const GoldenPrep>
    prepareGolden(const std::vector<const Tensor *> &ins) const override;

    std::size_t
    weightCount(const std::vector<const Tensor *> &ins) const override;
    float weightAt(const std::vector<const Tensor *> &ins,
                   std::size_t idx) const override;

    std::vector<NeuronIndex>
    inputConsumers(const std::vector<const Tensor *> &ins,
                   std::size_t elem) const override;
    std::vector<NeuronIndex>
    weightConsumers(const std::vector<const Tensor *> &ins,
                    std::size_t widx) const override;

    float computeNeuron(const std::vector<const Tensor *> &ins,
                        const NeuronIndex &out,
                        const OperandSub *sub) const override;

    int reductionLength() const override { return reduction_; }
    bool hasBias() const override { return false; }

  private:
    struct GoldenB;

    void checkInputs(const std::vector<const Tensor *> &ins) const;

    /**
     * The layer's one row loop: `rows` contiguous raw A rows
     * ([rows][red]) times B into `y` ([rows][cols]), against `bp`, or
     * when null a pack of the raw B `b` in the thread's scratch pack
     * (calls without a golden prep, and lanes whose B differs from the
     * golden one).
     * Each output equals computeNeuron() of its row and column.
     */
    void mulRows(const float *a, std::size_t rows, int red, int cols,
                 const float *b, const PackedOperand *bp, float *y) const;

    bool transB_;
    int reduction_;
    float scale_;
};

} // namespace fidelity

#endif // FIDELITY_NN_MATMUL_HH
