// Dense float vector operations for the embedding models.

#ifndef NEWSLINK_VEC_DENSE_VECTOR_H_
#define NEWSLINK_VEC_DENSE_VECTOR_H_

#include <span>
#include <vector>

namespace newslink {
namespace vec {

using Vector = std::vector<float>;

float Dot(std::span<const float> a, std::span<const float> b);
float Norm(std::span<const float> a);

/// Cosine similarity; 0 when either vector is (near) zero.
float CosineSimilarity(std::span<const float> a, std::span<const float> b);

/// a += scale * b
void AddScaled(std::span<float> a, std::span<const float> b, float scale);

void Scale(std::span<float> a, float scale);

/// Normalize to unit length in place (no-op for near-zero vectors).
void NormalizeInPlace(std::span<float> a);

}  // namespace vec
}  // namespace newslink

#endif  // NEWSLINK_VEC_DENSE_VECTOR_H_
