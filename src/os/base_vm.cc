#include "os/base_vm.hh"

namespace vmsim
{

BaseVm::BaseVm(MemSystem &mem)
    : VmSystem("BASE", mem)
{}

void
BaseVm::refBlock(const AccessBlock &blk)
{
    if (spansLegal())
        refBlockKernel<KernelBody::Spans>(*this, blk);
    else
        refBlockFor(*this, blk);
}

} // namespace vmsim
