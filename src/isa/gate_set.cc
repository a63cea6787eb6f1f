#include "isa/gate_set.h"

#include "common/error.h"
#include "qc/gates.h"

namespace qiset {

Matrix
GateType::unitary() const
{
    if (is_swap)
        return gates::swap();
    return gates::fsim(theta, phi);
}

AnalyticTier
GateType::analyticTier() const
{
    return qiset::analyticTier(unitary());
}

int
GateSet::calibrationTypeCount() const
{
    if (isContinuous()) {
        // The Section VIII discretization: a 19x19 grid of (theta,
        // phi) combinations; 1D families discretize to 19 points.
        if (continuous == ContinuousFamily::FullCphase)
            return 19;
        return 19 * 19;
    }
    return static_cast<int>(types.size());
}

bool
GateSet::hasType(const std::string& type_name) const
{
    for (const auto& type : types)
        if (type.name == type_name)
            return true;
    return false;
}

const char*
GateSet::familyKey() const
{
    return continuous == ContinuousFamily::FullXy       ? "XY"
           : continuous == ContinuousFamily::FullFsim   ? "fSim"
           : continuous == ContinuousFamily::FullCphase ? "CZt"
                                                        : "";
}

namespace isa {

namespace {
const double kPi = gates::kPi;

GateType
makeType(const std::string& name, double theta, double phi)
{
    GateType type;
    type.name = name;
    type.theta = theta;
    type.phi = phi;
    return type;
}

} // namespace

GateType
s1()
{
    return makeType("S1", kPi / 2.0, kPi / 6.0);
}

GateType
s2()
{
    return makeType("S2", kPi / 4.0, 0.0);
}

GateType
s3()
{
    return makeType("S3", 0.0, kPi);
}

GateType
s4()
{
    return makeType("S4", kPi / 2.0, 0.0);
}

GateType
s5()
{
    return makeType("S5", kPi / 3.0, 0.0);
}

GateType
s6()
{
    return makeType("S6", 3.0 * kPi / 8.0, 0.0);
}

GateType
s7()
{
    return makeType("S7", kPi / 6.0, kPi);
}

GateType
swapType()
{
    GateType type;
    type.name = "SWAP";
    type.is_swap = true;
    // Closest fSim member (equivalent up to single-qubit rotations).
    type.theta = kPi / 2.0;
    type.phi = kPi;
    return type;
}

std::vector<GateType>
baselineTypes()
{
    return {s1(), s2(), s3(), s4(), s5(), s6(), s7(), swapType()};
}

GateSet
singleTypeSet(int index)
{
    QISET_REQUIRE(index >= 1 && index <= 7, "S-sets are S1..S7");
    GateSet set;
    set.name = "S" + std::to_string(index);
    set.types = {baselineTypes()[index - 1]};
    return set;
}

GateSet
googleSet(int index)
{
    QISET_REQUIRE(index >= 1 && index <= 7, "G-sets are G1..G7");
    GateSet set;
    set.name = "G" + std::to_string(index);
    // G1 = {S1, S2}; each Gi adds the next type; G7 adds SWAP.
    set.types = {s1(), s2()};
    const GateType extras[] = {s3(), s4(), s5(), s6(), s7(), swapType()};
    for (int i = 2; i <= index; ++i)
        set.types.push_back(extras[i - 2]);
    return set;
}

GateSet
rigettiSet(int index)
{
    QISET_REQUIRE(index >= 1 && index <= 5, "R-sets are R1..R5");
    GateSet set;
    set.name = "R" + std::to_string(index);
    switch (index) {
      case 1:
        set.types = {s3(), s4()};
        break;
      case 2:
        set.types = {s2(), s3(), s4()};
        break;
      case 3:
        set.types = {s2(), s3(), s4(), s5()};
        break;
      case 4:
        set.types = {s2(), s3(), s4(), s5(), s6()};
        break;
      case 5:
        set.types = {s2(), s3(), s4(), s5(), s6(), swapType()};
        break;
    }
    return set;
}

GateSet
fullXy()
{
    GateSet set;
    set.name = "FullXY";
    set.continuous = ContinuousFamily::FullXy;
    // The anticipated Rigetti ISA keeps CZ alongside the XY family.
    set.types = {s3()};
    return set;
}

GateSet
fullFsim()
{
    GateSet set;
    set.name = "FullfSim";
    set.continuous = ContinuousFamily::FullFsim;
    return set;
}

GateSet
fullCphase()
{
    GateSet set;
    set.name = "FullCZt";
    set.continuous = ContinuousFamily::FullCphase;
    // Lacroix et al. pair the CZ(phi) family with an iSWAP-type gate
    // for universality beyond the phase sector.
    set.types = {s4()};
    return set;
}

} // namespace isa
} // namespace qiset
