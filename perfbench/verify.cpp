#include "verify.hpp"

#include <exception>

#include "check/canonical.hpp"
#include "check/check.hpp"
#include "io/complex_file.hpp"

namespace perfbench {

std::string checkReference(const msc::Domain& domain, const Parts& outputs,
                           const Parts& replay_parts) {
  if (outputs.empty()) return "no output parts";
  try {
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      const msc::MsComplex c = msc::io::unpack(outputs[i]);
      msc::check::CheckReport rep = msc::check::checkComplex(c);
      rep.merge(msc::check::checkEuler(c, 1));
      if (!rep.ok()) return "part " + std::to_string(i) + ": " + rep.summary();
    }
    const msc::check::CheckReport eq =
        msc::check::compareExact(msc::check::canonicalize(domain, replay_parts),
                                 msc::check::canonicalize(domain, outputs));
    if (!eq.ok()) return "differs from the serial replay: " + eq.summary();
  } catch (const std::exception& e) {
    return std::string("reference check threw: ") + e.what();
  }
  return "";
}

std::string checkCall(const Parts& got, const std::string& written_file, const Parts& reference) {
  if (got != reference) return "outputs differ from the run's first call";
  try {
    if (msc::io::readComplexFile(written_file) != got)
      return "written container differs from the returned outputs";
  } catch (const std::exception& e) {
    return std::string("written container unreadable: ") + e.what();
  }
  return "";
}

}  // namespace perfbench
