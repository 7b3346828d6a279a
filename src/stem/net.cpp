#include "stem/net.h"

#include <algorithm>
#include <stdexcept>

#include "stem/cell.h"
#include "stem/library.h"

namespace stemcp::env {

using core::Status;

Net::Net(CellClass& parent, std::string name)
    : parent_(&parent), name_(std::move(name)) {
  auto& ctx = parent_->context();
  const std::string path = qualified_name();
  bit_width_ = std::make_unique<StemVariable>(ctx, path, "bitWidth");
  data_type_ = std::make_unique<SignalTypeVar>(ctx, path, "dataType");
  electrical_type_ =
      std::make_unique<SignalTypeVar>(ctx, path, "electricalType");
  width_eq_ = &ctx.make<core::EqualityConstraint>();
  width_eq_->basic_add_argument(*bit_width_);
  data_compat_ = &ctx.make<CompatibleConstraint>();
  data_compat_->set_net_variable(*data_type_);
  elec_compat_ = &ctx.make<CompatibleConstraint>();
  elec_compat_->set_net_variable(*electrical_type_);
}

Net::~Net() {
  auto& ctx = parent_->context();
  ctx.destroy_constraint(*width_eq_);
  ctx.destroy_constraint(*data_compat_);
  ctx.destroy_constraint(*elec_compat_);
}

std::string Net::qualified_name() const {
  return parent_->name() + ":" + name_;
}

Status Net::connect(CellInstance& inst, const std::string& signal) {
  if (inst.parent_cell() != parent_) {
    throw std::logic_error("net " + qualified_name() +
                           ": instance belongs to a different cell");
  }
  IoSignal* sig = inst.cls().find_signal(signal);
  if (sig == nullptr) {
    throw std::out_of_range("net " + qualified_name() + ": no signal '" +
                            signal + "' on class " + inst.cls().name());
  }
  return join({&inst, signal, sig}, inst.net_for(signal));
}

Status Net::connect_io(const std::string& io_signal) {
  IoSignal* sig = parent_->find_signal(io_signal);
  if (sig == nullptr) {
    throw std::out_of_range("net " + qualified_name() + ": no io-signal '" +
                            io_signal + "' on " + parent_->name());
  }
  // Not `sig->internal_net()`: an inherited declaration is shared with the
  // superclass and its other subclasses, so only this cell's nets can tell.
  const Net* current = nullptr;
  for (const auto& net : parent_->nets()) {
    if (net->find(nullptr, io_signal) != net->connections_.end()) {
      current = net.get();
    }
  }
  return join({nullptr, io_signal, sig}, current);
}

Status Net::join(NetConnection pin, const Net* current) {
  if (current == this) return Status::ok();
  if (current != nullptr) {
    throw std::invalid_argument(
        "net " + qualified_name() + ": " +
        (pin.instance != nullptr ? "pin " + pin.instance->name() + ' '
                                 : std::string("io ")) +
        pin.signal + " is already on net " + current->qualified_name());
  }
  connections_.push_back(pin);
  core::Variable* width = &pin.declaration->bit_width();
  if (pin.instance != nullptr) {
    pin.instance->note_connection(pin.signal, this);
    width = &pin.instance->bit_width(pin.signal);
  } else {
    pin.declaration->internal_net_ = this;
  }

  // Instantiate the implied signal typing constraints (thesis §7.1):
  // equality over bit widths, compatibility over data / electrical types.
  bool violated = width_eq_->add_argument(*width).is_violation();
  violated |= data_compat_->add_argument(pin.declaration->data_type())
                  .is_violation();
  violated |= elec_compat_->add_argument(pin.declaration->electrical_type())
                  .is_violation();
  parent_->structure_edited();
  return violated ? Status::violation() : Status::ok();
}

void Net::leave(const CellInstance* inst, const std::string& signal) {
  const auto it = find(inst, signal);
  if (it == connections_.end()) return;
  const NetConnection pin = *it;
  connections_.erase(it);
  if (pin.instance != nullptr) {
    pin.instance->note_connection(pin.signal, nullptr);
    width_eq_->remove_argument(pin.instance->bit_width(pin.signal));
  } else {
    if (pin.declaration->internal_net_ == this) {
      pin.declaration->internal_net_ = nullptr;
    }
    width_eq_->remove_argument(pin.declaration->bit_width());
  }
  // Class-level type variables are shared by all instances of the class:
  // only remove them when no remaining pin joined through the same
  // declaration.
  if (std::none_of(connections_.begin(), connections_.end(),
                   [&](const NetConnection& c) {
                     return c.declaration == pin.declaration;
                   })) {
    data_compat_->remove_argument(pin.declaration->data_type());
    elec_compat_->remove_argument(pin.declaration->electrical_type());
  }
  parent_->structure_edited();
}

std::vector<NetConnection>::const_iterator Net::find(
    const CellInstance* inst, const std::string& signal) const {
  return std::find_if(connections_.begin(), connections_.end(),
                      [&](const NetConnection& c) {
                        return c.instance == inst && c.signal == signal;
                      });
}

double Net::wire_capacitance() const {
  if (cap_per_unit_ == 0.0) return 0.0;
  // Half-perimeter of the bounding box of every placed pin on the net.
  bool any = false;
  core::Rect box;
  for (const NetConnection& c : connections_) {
    if (c.instance == nullptr) continue;
    for (const IoPin& pin : c.instance->placed_pins()) {
      if (pin.signal != c.signal) continue;
      const core::Rect point{pin.position.x, pin.position.y, pin.position.x,
                             pin.position.y};
      box = any ? box.union_with(point) : point;
      any = true;
    }
  }
  if (!any) return 0.0;
  return cap_per_unit_ * static_cast<double>(box.width() + box.height());
}

double Net::total_load_capacitance(const CellInstance* exclude_inst,
                                   const std::string& exclude_signal) const {
  double total = wire_capacitance();
  for (const NetConnection& c : connections_) {
    if (c.instance == exclude_inst && c.signal == exclude_signal) continue;
    const IoSignal* sig = c.declaration;
    if (c.instance != nullptr) {
      // Subcell inputs (and bidirectionals) load the net.
      if (!sig->is_output()) total += sig->load_capacitance();
    } else {
      // The parent's output io carries the external load estimate.
      if (sig->is_output()) total += sig->load_capacitance();
    }
  }
  return total;
}

double Net::driver_resistance() const {
  for (const NetConnection& c : connections_) {
    const IoSignal* sig = c.declaration;
    if (c.instance != nullptr && sig->is_output()) {
      return sig->output_resistance();
    }
    if (c.instance == nullptr && sig->is_input()) {
      // The parent's input io drives internal nets with its source
      // resistance.
      return sig->output_resistance();
    }
  }
  return 0.0;
}

double rc_delay(const IoSignal* driver, const CellInstance& context) {
  if (driver == nullptr) return 0.0;
  const Net* out_net = context.net_for(driver->name());
  if (out_net == nullptr) return 0.0;
  return driver->output_resistance() *
         out_net->total_load_capacitance(&context, driver->name());
}

}  // namespace stemcp::env
