#include "os/base_vm.hh"

namespace vmsim
{

BaseVm::BaseVm(MemSystem &mem)
    : VmSystem("BASE", mem)
{}

void
BaseVm::refBlock(const AccessBlock &blk)
{
    // No VM, so a split block is the back end over an empty log.
    if (splitLegal())
        backEnd(blk);
    else
        refBlockFor(*this, blk);
}

} // namespace vmsim
