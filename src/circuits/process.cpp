#include "src/circuits/process.hpp"

#include <cmath>

#include "src/common/error.hpp"

namespace moheco::circuits {

ProcessModel::ProcessModel(const Technology& tech, int num_transistors)
    : tech_(&tech), num_transistors_(num_transistors) {
  require(num_transistors > 0, "ProcessModel: need at least one transistor");
}

int ProcessModel::dim() const { return intra_dim() + inter_dim(); }

std::string ProcessModel::variable_name(int i) const {
  require(i >= 0 && i < dim(), "ProcessModel::variable_name: out of range");
  if (i < intra_dim()) {
    static const char* kParam[] = {"VTH0", "TOX", "LD", "WD"};
    // Appended: gcc 12 at -O3 reports a false -Wrestrict on a literal +
    // std::string rvalue.
    std::string name = "M";
    name += std::to_string(i / 4 + 1);
    name += '.';
    name += kParam[i % 4];
    return name;
  }
  return tech_->inter_die[static_cast<std::size_t>(i - intra_dim())].name;
}

DeviceDeltas ProcessModel::device_deltas(std::span<const double> xi,
                                         int device, bool is_pmos, double w,
                                         double l) const {
  DeviceDeltas d;
  if (xi.empty()) return d;  // nominal point
  require(static_cast<int>(xi.size()) == dim(),
          "ProcessModel::device_deltas: xi dimension mismatch");
  require(device >= 0 && device < num_transistors_,
          "ProcessModel::device_deltas: device index out of range");

  // Intra-die mismatch (area law).
  const MismatchLaw& law =
      is_pmos ? tech_->mismatch_pmos : tech_->mismatch_nmos;
  const double inv_sqrt_area = 1.0 / std::sqrt(w * l);
  const double* z = xi.data() + 4 * device;
  d.dvth0 += z[0] * law.a_vth * inv_sqrt_area;
  d.tox_mult += z[1] * law.a_tox_rel * inv_sqrt_area;
  d.dld += z[2] * law.a_ld * inv_sqrt_area;
  d.dwd += z[3] * law.a_wd * inv_sqrt_area;

  // Inter-die (global) variables.
  const double* zi = xi.data() + intra_dim();
  for (std::size_t k = 0; k < tech_->inter_die.size(); ++k) {
    const InterDieVar& var = tech_->inter_die[k];
    if (var.which == DeviceClass::kNmos && is_pmos) continue;
    if (var.which == DeviceClass::kPmos && !is_pmos) continue;
    const double delta = zi[k] * var.sigma;
    switch (var.effect) {
      case InterEffect::kVth0: d.dvth0 += delta; break;
      case InterEffect::kToxRel: d.tox_mult += delta; break;
      case InterEffect::kU0Rel: d.u0_mult += delta; break;
      case InterEffect::kLd: d.dld += delta; break;
      case InterEffect::kWd: d.dwd += delta; break;
      case InterEffect::kGammaRel: d.gamma_mult += delta; break;
      case InterEffect::kPhiRel: d.phi_mult += delta; break;
      case InterEffect::kLambdaRel: d.lambda_mult += delta; break;
      case InterEffect::kCjRel: d.cj_mult += delta; break;
      case InterEffect::kCjswRel: d.cjsw_mult += delta; break;
      case InterEffect::kCgdoRel: d.cgdo_mult += delta; break;
      case InterEffect::kCgsoRel: d.cgso_mult += delta; break;
      case InterEffect::kLdiffRel: d.ldiff_mult += delta; break;
      case InterEffect::kNsubRel: d.nsub_mult += delta; break;
      case InterEffect::kDeltaL: d.dl += delta; break;
      case InterEffect::kDeltaW: d.dw += delta; break;
    }
  }
  return d;
}

}  // namespace moheco::circuits
