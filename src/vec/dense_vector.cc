#include "vec/dense_vector.h"

#include <cmath>

#include "common/logging.h"

namespace newslink {
namespace vec {

float Dot(std::span<const float> a, std::span<const float> b) {
  NL_DCHECK(a.size() == b.size());
  float acc = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

float Norm(std::span<const float> a) { return std::sqrt(Dot(a, a)); }

float CosineSimilarity(std::span<const float> a, std::span<const float> b) {
  const float na = Norm(a);
  const float nb = Norm(b);
  if (na < 1e-9f || nb < 1e-9f) return 0.0f;
  return Dot(a, b) / (na * nb);
}

void AddScaled(std::span<float> a, std::span<const float> b, float scale) {
  NL_DCHECK(a.size() == b.size());
  for (size_t i = 0; i < a.size(); ++i) a[i] += scale * b[i];
}

void Scale(std::span<float> a, float scale) {
  for (float& x : a) x *= scale;
}

void NormalizeInPlace(std::span<float> a) {
  const float n = Norm(a);
  if (n < 1e-9f) return;
  Scale(a, 1.0f / n);
}

}  // namespace vec
}  // namespace newslink
