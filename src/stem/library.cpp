#include "stem/library.h"

#include <stdexcept>
#include <utility>

#include "stem/cell.h"

namespace stemcp::env {

Library::Library(std::string name) : name_(std::move(name)) {}

Library::~Library() {
  // A class must outlive every instance of it (~CellInstance unregisters
  // from its class).  Newest-first is not enough: a structure edit can
  // instantiate a class defined AFTER its parent cell.  Each round destroy
  // some cell no live instance points to — releasing a composite's
  // subcells unblocks their classes for a later round.
  while (!cells_.empty()) {
    bool destroyed = false;
    for (std::size_t i = cells_.size(); i-- > 0;) {
      if (cells_[i]->instances().empty()) {
        index_.erase(cells_[i]->name());
        cells_.erase(cells_.begin() + static_cast<std::ptrdiff_t>(i));
        destroyed = true;
        break;
      }
    }
    // Unreachable unless instantiation ever becomes cyclic; prefer the old
    // newest-first behavior over spinning.
    if (!destroyed) {
      index_.erase(cells_.back()->name());
      cells_.pop_back();
    }
  }
}

void Library::rollback_cells_to(std::size_t count) {
  while (cells_.size() > count) {
    index_.erase(cells_.back()->name());
    cells_.pop_back();
  }
}

CellClass& Library::define_cell(const std::string& name,
                                CellClass* superclass) {
  if (find(name) != nullptr) {
    throw std::invalid_argument("cell already defined: " + name);
  }
  cells_.push_back(std::make_unique<CellClass>(*this, name, superclass));
  CellClass& c = *cells_.back();
  index_.emplace(c.name(), &c);
  return c;
}

CellClass* Library::find(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : it->second;
}

CellClass& Library::cell(const std::string& name) const {
  CellClass* c = find(name);
  if (c == nullptr) throw std::out_of_range("no cell named " + name);
  return *c;
}

}  // namespace stemcp::env
