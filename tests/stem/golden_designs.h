// The designs whose save images tests/stem/golden/ pins byte for byte:
// every examples/designs/*.lib, the two workload designs, and a generated
// two-level hierarchy whose numbers need all 17 significant digits.
#pragma once

#include <cstdio>
#include <string>

namespace stemcp::env::golden {

/// `v` as %.17g: the shortest text that is guaranteed to read back as `v`
/// for every double, so every number below reads back exactly.
inline std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Library text of a generated two-level hierarchy: four leaf classes (one
/// a device) with boxes, pins, typed and loaded signals, parameters, delay
/// values and specs; three mid-level cells that each chain two leaves in
/// different orientations; and one top cell that chains the three.  Every
/// real number is a fraction whose shortest exact text has 17 digits.
inline std::string two_level_hierarchy() {
  static const char* const kOrient[] = {"R0", "MX", "R90", "MYR90"};
  std::string t = "# generated two-level hierarchy\n";
  t += "cell NFET\n  device nmos " + num(2e-6 / 3) + ' ' + num(1e4 / 7) +
       "\nend\n";
  for (int i = 0; i < 4; ++i) {
    const std::string n = std::to_string(i);
    t += "cell L" + n + "\n";
    t += "  bbox 0 0 " + std::to_string(4 + i) + ' ' +
         std::to_string(3 + 2 * i) + "\n";
    t += "  signal in input width 8 data IntegerSignal load " +
         num(1e-14 * (i + 1) / 3) + "\n    pin 0 1 left\n";
    t += "  signal out output elec CMOS rout " + num(100.0 * (i + 1) / 3) +
         "\n    pin " + std::to_string(4 + i) + " 1 right\n";
    t += "  param gain " + num(0.1 * (i + 3)) + ' ' + num(10.0 / 3) +
         " default " + num(1.0 / (i + 3)) + "\n";
    t += "  delay in out value " + num(1e-9 * (i + 1) / 3) + "\n";
    t += "    spec <= " + num(1e-8 * (i + 2) / 7) + "\n";
    t += "end\n";
  }
  for (int j = 0; j < 3; ++j) {
    const std::string n = std::to_string(j);
    t += "cell M" + n + "\n  signal in input\n  signal out output\n";
    t += "  delay in out\n    spec <= " + num(1e-7 / 3 * (j + 1)) + "\n";
    t += "  subcell u0 L" + n + ' ' + kOrient[j] + " 0 0\n";
    t += "  subcell u1 L" + std::to_string(j + 1) + ' ' + kOrient[j + 1] +
         ' ' + std::to_string(10 * j - 7) + ' ' + std::to_string(-3 * j) +
         "\n";
    t += "  net n_in\n    io in\n    conn u0 in\n";
    t += "  net n_mid\n    conn u0 out\n    conn u1 in\n";
    t += "  net n_out\n    conn u1 out\n    io out\nend\n";
  }
  t += "cell TOP\n  signal in input\n  signal out output\n";
  t += "  param corner " + num(-1.0 / 3) + ' ' + num(2.0 / 3) + "\n";
  t += "  delay in out\n    spec < " + num(1e-6 / 3) + "\n";
  t += "    spec > " + num(-1e-12 / 7) + "\n";
  for (int j = 0; j < 3; ++j) {
    t += "  subcell m" + std::to_string(j) + " M" + std::to_string(j) +
         " R0 " + std::to_string(40 * j) + " 0\n";
  }
  t += "  net n_in\n    io in\n    conn m0 in\n";
  t += "  net n_01\n    conn m0 out\n    conn m1 in\n";
  t += "  net n_12\n    conn m1 out\n    conn m2 in\n";
  t += "  net n_out\n    conn m2 out\n    io out\nend\n";
  return t;
}

}  // namespace stemcp::env::golden
